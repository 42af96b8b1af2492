package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"coscale/internal/server"
)

// finishSweep admits a one-cell sweep and commits its cell.
func finishSweep(t *testing.T, st *Store) string {
	t.Helper()
	id, _, err := st.AddSweep(normSweep(t, []string{"MEM1"}, []string{"CoScale"}))
	if err != nil {
		t.Fatal(err)
	}
	job := fmtJobID(id, 0)
	if _, err := st.Lease(job, "w1"); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Done(job, json.RawMessage(`{"x":1}`)); err != nil || !ok {
		t.Fatalf("Done(%s) = (%v, %v), want committed", job, ok, err)
	}
	return id
}

// TestRetentionKeepsNewestFinished finishes retainSweeps+k sweeps behind a
// sweep that keeps running: the store holds exactly the running sweep and
// the newest retainSweeps finished ones, and only the running one is
// dispatchable.
func TestRetentionKeepsNewestFinished(t *testing.T) {
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	running, _, err := st.AddSweep(normSweep(t, []string{"MEM1"}, []string{"CoScale"}))
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	var finished []string
	for range retainSweeps + k {
		finished = append(finished, finishSweep(t, st))
	}
	want := append([]string{running}, finished[k:]...)
	if got := st.SweepIDs(); !slices.Equal(got, want) {
		t.Fatalf("SweepIDs = %v, want %v", got, want)
	}
	for _, id := range finished[:k] {
		if _, ok := st.Status(id); ok {
			t.Fatalf("dropped sweep %s still has a status", id)
		}
	}
	for _, id := range want {
		if _, ok := st.Status(id); !ok {
			t.Fatalf("held sweep %s has no status", id)
		}
	}
	refs := st.Dispatchable(time.Unix(0, 0), math.MaxInt)
	if len(refs) != 1 || refs[0].SweepID != running {
		t.Fatalf("Dispatchable = %+v, want the running sweep's one cell", refs)
	}
}

// TestLateResultsForDroppedSweep sends a result and a failure for a job
// whose sweep retention has dropped: both are ignored, neither reaches the
// journal, and a job that was never admitted is still an error.
func TestLateResultsForDroppedSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first := finishSweep(t, st)
	for range retainSweeps {
		finishSweep(t, st)
	}
	if _, ok := st.Status(first); ok {
		t.Fatalf("sweep %s not dropped after %d newer sweeps finished", first, retainSweeps)
	}
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	job := fmtJobID(first, 0)
	if ok, err := st.Done(job, json.RawMessage(`{"x":2}`)); ok || err != nil {
		t.Fatalf("late Done = (%v, %v), want (false, nil)", ok, err)
	}
	if terminal, err := st.Fail(job, 1, "late", 4, time.Time{}); terminal || err != nil {
		t.Fatalf("late Fail = (%v, %v), want (false, nil)", terminal, err)
	}
	if after := size(); after != before {
		t.Fatalf("late results journaled %d bytes", after-before)
	}
	if _, err := st.Done("s999/0", nil); err == nil {
		t.Fatal("Done on a never-admitted job succeeded")
	}
}

// TestPartlyFailedSweepNotRetired holds a sweep whose one cell failed
// terminally while another is still leased: it reports "failed" yet stays
// active, so its leased cell can still commit, however many other sweeps
// finish meanwhile.
func TestPartlyFailedSweepNotRetired(t *testing.T) {
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.AddSweep(normSweep(t, []string{"MEM1", "MIX1"}, []string{"CoScale"}))
	if err != nil {
		t.Fatal(err)
	}
	j0, j1 := fmtJobID(id, 0), fmtJobID(id, 1)
	for _, job := range []string{j0, j1} {
		if _, err := st.Lease(job, "w1"); err != nil {
			t.Fatal(err)
		}
	}
	if terminal, err := st.Fail(j0, 1, "boom", 1, time.Time{}); err != nil || !terminal {
		t.Fatalf("Fail = (%v, %v), want terminal", terminal, err)
	}
	if state, _ := st.State(id); state != "failed" {
		t.Fatalf("State = %q, want failed", state)
	}
	for range retainSweeps + 1 {
		finishSweep(t, st)
	}
	if !slices.Contains(st.SweepIDs(), id) {
		t.Fatalf("sweep %s with a leased cell was retired", id)
	}
	if refs := st.LeasedTo("w1"); len(refs) != 1 || refs[0].ID != j1 {
		t.Fatalf("LeasedTo = %+v, want %s", refs, j1)
	}
	if ok, err := st.Done(j1, json.RawMessage(`{"x":1}`)); err != nil || !ok {
		t.Fatalf("Done(%s) = (%v, %v), want committed", j1, ok, err)
	}
	stat, ok := st.Status(id)
	if !ok || stat.State != "failed" || stat.Done != 1 || stat.Failed != 1 {
		t.Fatalf("status = %+v, want failed with 1 done and 1 failed", stat)
	}
}

// TestReplayRetainsSameSet reopens a journal of retainSweeps+k finished
// sweeps and one running sweep: replay applies retention record by record,
// so the reopened store holds the same sweeps and still ignores late
// results for the dropped ones.
func TestReplayRetainsSameSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	first := finishSweep(t, st)
	for range retainSweeps + 2 {
		finishSweep(t, st)
	}
	if _, _, err := st.AddSweep(normSweep(t, []string{"MEM1"}, []string{"CoScale"})); err != nil {
		t.Fatal(err)
	}
	want := st.SweepIDs()
	st.Close()

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.SweepIDs(); !slices.Equal(got, want) {
		t.Fatalf("replayed SweepIDs = %v, want %v", got, want)
	}
	if ok, err := st2.Done(fmtJobID(first, 0), nil); ok || err != nil {
		t.Fatalf("late Done after replay = (%v, %v), want (false, nil)", ok, err)
	}
	if refs := st2.Dispatchable(time.Unix(0, 0), math.MaxInt); len(refs) != 1 || refs[0].SweepID != want[len(want)-1] {
		t.Fatalf("replayed Dispatchable = %+v, want the running sweep's one cell", refs)
	}
}

// TestDispatchDoesNotWaitForTick runs a sweep on a coordinator whose tick
// never fires during the test: admission and each freed inflight slot wake
// the scheduler, so every cell runs well within a second.
func TestDispatchDoesNotWaitForTick(t *testing.T) {
	c, err := New(Config{SchedTick: time.Hour, Transport: okTransport{}, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.register("w1", "http://w1")
	// 12 cells against 4 inflight slots: three rounds of freed slots.
	st, err := c.Submit(server.SweepRequest{Workloads: []string{"MEM1", "MIX1"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	final, err := c.WaitSweep(ctx, st.ID)
	if err != nil || final.State != "done" || final.Done != 12 {
		t.Fatalf("WaitSweep = (%s, %d/12 done, %v), want done within a second", final.State, final.Done, err)
	}
}

// failFirstTransport fails the first attempt of every job whose ID ends in
// suffix and commits everything else at once.
type failFirstTransport struct{ suffix string }

func (f failFirstTransport) Execute(ctx context.Context, w Endpoint, job JobSpec) (JobResult, error) {
	if job.Attempt == 1 && strings.HasSuffix(job.ID, f.suffix) {
		return JobResult{}, errors.New("refused")
	}
	return okTransport{}.Execute(ctx, w, job)
}

// TestRetryRunsAfterBackoff fails one cell's first attempt: the tick picks
// it up again once its backoff expires, and the sweep finishes with that
// cell on its second attempt, no sooner than the backoff allows.
func TestRetryRunsAfterBackoff(t *testing.T) {
	const base = 20 * time.Millisecond
	c, err := New(Config{
		SchedTick:   2 * time.Millisecond,
		BackoffBase: base,
		BackoffMax:  4 * base,
		Transport:   failFirstTransport{suffix: "/0"},
		Logger:      quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.register("w1", "http://w1")
	start := time.Now()
	st, err := c.Submit(server.SweepRequest{Workloads: []string{"MEM1"}, Policies: []string{"CoScale", "MemScale"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := c.WaitSweep(ctx, st.ID)
	if err != nil || final.State != "done" {
		t.Fatalf("WaitSweep = (%+v, %v), want done", final, err)
	}
	if a := final.Cells[0].Attempts; a != 2 {
		t.Fatalf("retried cell took %d attempts, want 2", a)
	}
	if a := final.Cells[1].Attempts; a != 1 {
		t.Fatalf("healthy cell took %d attempts, want 1", a)
	}
	if elapsed, min := time.Since(start), Backoff(final.Cells[0].Hash, 1, base, 4*base); elapsed < min {
		t.Fatalf("sweep finished after %v, before the %v backoff expired", elapsed, min)
	}
}
