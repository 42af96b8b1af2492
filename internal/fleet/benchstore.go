package fleet

import (
	"encoding/json"
	"testing"
	"time"

	"coscale/internal/server"
)

// dispatchBenchSweeps default 96-cell sweeps make the benchmark store about
// 10k jobs.
const dispatchBenchSweeps = 104

// BenchStoreDispatchable measures one scheduler scan of the fleet job store
// after a long history: about 10k jobs admitted, every one done but the
// newest sweep's 96 pending cells. The root package's
// BenchmarkStoreDispatchable and cmd/coscale-bench's StoreDispatchable row
// both run it.
func BenchStoreDispatchable(b *testing.B) {
	st, err := dispatchBenchStore()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if refs := st.Dispatchable(time.Time{}, 96); len(refs) != 96 {
			b.Fatalf("Dispatchable found %d jobs, want 96", len(refs))
		}
	}
}

// dispatchBenchStore builds BenchStoreDispatchable's input: an in-memory
// store that has admitted dispatchBenchSweeps default sweeps (9,984 jobs)
// and committed every cell of all but the last, so a scheduler pass finds
// 96 pending jobs behind a long finished history.
func dispatchBenchStore() (*Store, error) {
	req, err := server.SweepRequest{}.Normalized()
	if err != nil {
		return nil, err
	}
	st, err := OpenStore("")
	if err != nil {
		return nil, err
	}
	result := json.RawMessage(`{}`)
	for range dispatchBenchSweeps - 1 {
		id, n, err := st.AddSweep(req)
		if err != nil {
			return nil, err
		}
		for i := range n {
			job := fmtJobID(id, i)
			if _, err := st.Lease(job, "w1"); err != nil {
				return nil, err
			}
			if _, err := st.Done(job, result); err != nil {
				return nil, err
			}
		}
	}
	if _, _, err := st.AddSweep(req); err != nil {
		return nil, err
	}
	return st, nil
}
