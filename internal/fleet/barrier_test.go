package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"coscale/internal/server"
)

// cellResult is the result the barrier tests commit for cell i.
func cellResult(i int) json.RawMessage { return json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i)) }

// TestPowerLossAtStatusBarrier emulates a power or OS loss, which keeps
// what the journal's last fsync covered and may keep any prefix of what
// was written after it. The Status read is the barrier: every cell it
// showed done must come back done with a byte-identical result, a cell
// committed after it comes back either done with its own result or
// pending with the attempt count the read showed, and at exactly the
// synced length every later cell is pending. Running the sweep to the end
// then leaves exactly one done record per job.
func TestPowerLossAtStatusBarrier(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.journal")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, total, err := st.AddSweep(normSweep(t, []string{"MEM1", "MIX1"}, []string{"CoScale", "MemScale", "CPUOnly"}))
	if err != nil {
		t.Fatal(err)
	}
	// Every cell is leased; cell 4 fails its first attempt and is leased
	// again, so a cell committed after the barrier carries attempt 2.
	for i := range total {
		if _, err := st.Lease(fmtJobID(id, i), "w1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Fail(fmtJobID(id, 4), 1, "cut", 4, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Lease(fmtJobID(id, 4), "w2"); err != nil {
		t.Fatal(err)
	}
	const seen = 3 // cells committed before the Status read
	var before SweepStatus
	for i := range total {
		if i == seen {
			before = mustStatus(t, st, id) // the barrier
		}
		if ok, err := st.Done(fmtJobID(id, i), cellResult(i)); err != nil || !ok {
			t.Fatalf("Done(%d) = (%v, %v), want committed", i, ok, err)
		}
	}
	cut := st.j.synced
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Release the file without Store.Close, which would sync.
	if err := st.j.f.Close(); err != nil {
		t.Fatal(err)
	}
	if cut >= int64(len(data)) {
		t.Fatalf("synced length %d covers the whole %d-byte journal: commits after the read were synced", cut, len(data))
	}

	for keep := cut; keep <= int64(len(data)); keep++ {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "fleet.journal")
			if err := os.WriteFile(p, data[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
			st2, err := OpenStore(p)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			after := mustStatus(t, st2, id)
			for i, cell := range after.Cells {
				was := before.Cells[i]
				switch {
				case was.State == JobDone:
					if cell.State != JobDone || !bytes.Equal(cell.Result, was.Result) {
						t.Fatalf("cell %d the read showed done came back %s with %s, want done with %s", i, cell.State, cell.Result, was.Result)
					}
				case cell.State == JobDone:
					if keep == cut || !bytes.Equal(cell.Result, cellResult(i)) {
						t.Fatalf("cell %d came back done with %s at %d of %d synced bytes", i, cell.Result, keep, cut)
					}
				case cell.State != JobPending || cell.Attempts != was.Attempts:
					t.Fatalf("cell %d came back %s with %d attempts, want pending with %d", i, cell.State, cell.Attempts, was.Attempts)
				}
			}
			for i, cell := range after.Cells {
				if cell.State != JobPending {
					continue
				}
				if _, err := st2.Lease(fmtJobID(id, i), "w1"); err != nil {
					t.Fatal(err)
				}
				if ok, err := st2.Done(fmtJobID(id, i), cellResult(i)); err != nil || !ok {
					t.Fatalf("Done(%d) after recovery = (%v, %v), want committed", i, ok, err)
				}
			}
			if final := mustStatus(t, st2, id); final.State != "done" || final.Done != total {
				t.Fatalf("recovered sweep ended %s with %d/%d done", final.State, final.Done, total)
			}
			auditJournal(t, p, total, 3)
		})
	}
}

// TestFailedSyncServesNoStatus fails the barrier's fsync under a journal
// with an unsynced record: Status returns the error and no snapshot, and
// keeps returning it after the failure, since a retried fsync may report
// clean pages the failed one dropped. State, the unsynced probe, still
// answers.
func TestFailedSyncServesNoStatus(t *testing.T) {
	st, err := OpenStore(filepath.Join(t.TempDir(), "fleet.journal"))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.AddSweep(normSweep(t, []string{"MEM1"}, []string{"CoScale"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Lease(fmtJobID(id, 0), "w1"); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Done(fmtJobID(id, 0), cellResult(0)); err != nil || !ok {
		t.Fatalf("Done = (%v, %v), want committed", ok, err)
	}
	st.j.f.Close() // the next fsync fails
	for range 2 {
		if stat, ok, err := st.Status(id); err == nil || ok || stat.ID != "" {
			t.Fatalf("Status over a failed sync = (%+v, %v, %v), want an error and no status", stat, ok, err)
		}
	}
	if state, ok := st.State(id); !ok || state != "done" {
		t.Fatalf("State = (%q, %v), want done", state, ok)
	}
}

// hangTransport holds every lease until its context ends.
type hangTransport struct{}

func (hangTransport) Execute(ctx context.Context, w Endpoint, job JobSpec) (JobResult, error) {
	<-ctx.Done()
	return JobResult{}, ctx.Err()
}

// TestFailedSyncAnswers5xx fails the barrier's fsync under a coordinator
// whose journal holds unsynced lease records: the status read over HTTP
// answers 500, and WaitSweep returns the sync error with no status.
func TestFailedSyncAnswers5xx(t *testing.T) {
	c, err := New(Config{
		JournalPath: filepath.Join(t.TempDir(), "fleet.journal"),
		Transport:   hangTransport{},
		Logger:      quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.register("w1", "http://w1")
	st, err := c.Submit(server.SweepRequest{Workloads: []string{"MEM1"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "a lease", func() bool { return len(c.store.LeasedTo("w1")) > 0 })
	c.store.mu.Lock()
	c.store.j.f.Close() // the next fsync fails
	c.store.mu.Unlock()

	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/fleet/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET sweep over a failed sync = %d, want 500", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if got, err := c.WaitSweep(ctx, st.ID); err == nil || err == ctx.Err() || got.ID != "" {
		t.Fatalf("WaitSweep over a failed sync = (%+v, %v), want the sync error and no status", got, err)
	}
}

// TestWaitedSweepSyncs runs one default 96-cell sweep through the HTTP API,
// waited with ?wait=1, and reads the journal's fsync count from /metrics:
// admission syncs once and the waited read once, where one fsync per
// committed cell made 97.
func TestWaitedSweepSyncs(t *testing.T) {
	c, err := New(Config{
		JournalPath: filepath.Join(t.TempDir(), "fleet.journal"),
		Transport:   okTransport{},
		Logger:      quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.register("w1", "http://w1")
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/fleet/sweeps", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || st.Total != 96 {
		t.Fatalf("submit = %d, %d cells, %v; want 202 with 96 cells", resp.StatusCode, st.Total, err)
	}
	resp, err = http.Get(ts.URL + "/v1/fleet/sweeps/" + st.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != "done" || st.Done != 96 {
		t.Fatalf("waited sweep = %s with %d/96 done, %v", st.State, st.Done, err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	syncs := int64(-1)
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if v, ok := strings.CutPrefix(sc.Text(), "coscale_fleet_journal_syncs_total "); ok {
			if syncs, err = strconv.ParseInt(v, 10, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if syncs < 2 || syncs > 3 {
		t.Fatalf("coscale_fleet_journal_syncs_total = %d after one waited 96-cell sweep, want 2 or 3", syncs)
	}
}
