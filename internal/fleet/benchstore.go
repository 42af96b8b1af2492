package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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

// BenchStoreSweepCommit measures the journal's commit path: per op, one
// default 96-cell sweep through a journaled store in a temporary
// directory — AddSweep, a Lease and a Done per cell, then the Status read
// whose fsync makes the results durable. Each result is about the size of
// a real cell's (a 96-cell sweep journals about 266 KB). The store first
// finishes retainSweeps+1 sweeps, so every timed sweep also retires the
// oldest one, as in a long-running coordinator. The root package's
// BenchmarkStoreSweepCommit and cmd/coscale-bench's StoreSweepCommit row
// both run it.
func BenchStoreSweepCommit(b *testing.B) {
	req, err := server.SweepRequest{}.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "coscale-bench-journal-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := OpenStore(filepath.Join(dir, "journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	result, err := json.Marshal(map[string]string{"pad": strings.Repeat("x", 2700)})
	if err != nil {
		b.Fatal(err)
	}
	op := func() {
		id, err := commitSweep(st, req, result)
		if err != nil {
			b.Fatal(err)
		}
		if stat, _, err := st.Status(id); err != nil || stat.State != "done" {
			b.Fatalf("Status = %s, %v; want done", stat.State, err)
		}
	}
	for range retainSweeps + 1 {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer() // the deferred cleanup is not part of an op
}

// commitSweep admits req into st, then leases and commits every cell with
// result, and returns the sweep's ID.
func commitSweep(st *Store, req server.SweepRequest, result json.RawMessage) (string, error) {
	id, n, err := st.AddSweep(req)
	if err != nil {
		return "", err
	}
	for i := range n {
		job := fmtJobID(id, i)
		if _, err := st.Lease(job, "w1"); err != nil {
			return "", err
		}
		if _, err := st.Done(job, result); err != nil {
			return "", err
		}
	}
	return id, nil
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
		if _, err := commitSweep(st, req, result); err != nil {
			return nil, err
		}
	}
	if _, _, err := st.AddSweep(req); err != nil {
		return nil, err
	}
	return st, nil
}
