package fleet

import (
	"encoding/json"

	"coscale/internal/server"
)

// dispatchBenchSweeps default 96-cell sweeps make the benchmark store about
// 10k jobs.
const dispatchBenchSweeps = 104

// DispatchBenchStore builds the input of the StoreDispatchable benchmark:
// an in-memory store that has admitted dispatchBenchSweeps default sweeps
// (9,984 jobs) and committed every cell of all but the last, so a
// scheduler pass finds 96 pending jobs behind a long finished history. One
// definition keeps `go test -bench` and cmd/coscale-bench measuring the
// same store.
func DispatchBenchStore() (*Store, error) {
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
