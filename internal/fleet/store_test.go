package fleet

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestLeaseStateMachine walks one job through the full lease lifecycle in an
// in-memory store: pending → leased → (fail, backoff) → pending → leased →
// done, with the stale-attempt guard and terminal idempotence on the way.
func TestLeaseStateMachine(t *testing.T) {
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	req := normSweep(t, []string{"MEM1"}, []string{"CoScale"})
	id, total, err := st.AddSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("total = %d, want 1", total)
	}
	job := fmtJobID(id, 0)
	t0 := time.Unix(1000, 0)

	attempt, err := st.Lease(job, "w1")
	if err != nil || attempt != 1 {
		t.Fatalf("Lease = (%d, %v), want attempt 1", attempt, err)
	}
	if _, err := st.Lease(job, "w2"); err == nil {
		t.Fatal("double lease succeeded")
	}
	// A leased job is not dispatchable.
	if refs := st.Dispatchable(t0, math.MaxInt); len(refs) != 0 {
		t.Fatalf("leased job dispatchable: %v", refs)
	}

	// A stale failure (wrong attempt) is ignored.
	if terminal, err := st.Fail(job, 7, "stale", 4, t0); err != nil || terminal {
		t.Fatalf("stale Fail = (%v, %v), want ignored", terminal, err)
	}
	if got := st.LeasedTo("w1"); len(got) != 1 {
		t.Fatalf("stale fail released the lease: %v", got)
	}

	// A real failure returns the job to pending, gated by backoff.
	nb := t0.Add(100 * time.Millisecond)
	if terminal, err := st.Fail(job, 1, "refused", 4, nb); err != nil || terminal {
		t.Fatalf("Fail = (%v, %v), want non-terminal", terminal, err)
	}
	if refs := st.Dispatchable(t0, math.MaxInt); len(refs) != 0 {
		t.Fatalf("job dispatchable before backoff elapsed: %v", refs)
	}
	refs := st.Dispatchable(nb, math.MaxInt)
	if len(refs) != 1 || refs[0].Attempts != 1 {
		t.Fatalf("Dispatchable after backoff = %+v, want 1 ref with attempts=1", refs)
	}

	if attempt, err = st.Lease(job, "w2"); err != nil || attempt != 2 {
		t.Fatalf("re-lease = (%d, %v), want attempt 2", attempt, err)
	}
	committed, err := st.Done(job, json.RawMessage(`{"x":1}`))
	if err != nil || !committed {
		t.Fatalf("Done = (%v, %v), want committed", committed, err)
	}
	// Terminal idempotence: a late duplicate cannot double-commit, a late
	// failure cannot clobber the result.
	if committed, _ := st.Done(job, json.RawMessage(`{"x":2}`)); committed {
		t.Fatal("duplicate Done committed")
	}
	if terminal, err := st.Fail(job, 2, "late", 4, nb); err != nil || terminal {
		t.Fatalf("post-done Fail = (%v, %v), want ignored", terminal, err)
	}
	stat := mustStatus(t, st, id)
	if stat.State != "done" || string(stat.Cells[0].Result) != `{"x":1}` {
		t.Fatalf("final status = %+v", stat)
	}
}

// TestAttemptCap fails a job terminally once its attempts are exhausted.
func TestAttemptCap(t *testing.T) {
	st, _ := OpenStore("")
	id, _, err := st.AddSweep(normSweep(t, []string{"MEM1"}, []string{"CoScale"}))
	if err != nil {
		t.Fatal(err)
	}
	job := fmtJobID(id, 0)
	now := time.Unix(0, 0)
	const maxAttempts = 3
	for n := 1; n <= maxAttempts; n++ {
		if _, err := st.Lease(job, "w1"); err != nil {
			t.Fatalf("lease %d: %v", n, err)
		}
		terminal, err := st.Fail(job, n, "boom", maxAttempts, now)
		if err != nil {
			t.Fatalf("fail %d: %v", n, err)
		}
		if want := n == maxAttempts; terminal != want {
			t.Fatalf("fail %d terminal = %v, want %v", n, terminal, want)
		}
	}
	stat := mustStatus(t, st, id)
	if stat.State != "failed" || stat.Cells[0].Error != "boom" || stat.Cells[0].Attempts != maxAttempts {
		t.Fatalf("capped status = %+v", stat)
	}
	if refs := st.Dispatchable(now.Add(time.Hour), math.MaxInt); len(refs) != 0 {
		t.Fatalf("terminally failed job dispatchable: %v", refs)
	}
}

// TestBackoffDeterministic pins the backoff law: pure in (hash, attempt),
// exponential with jitter, capped.
func TestBackoffDeterministic(t *testing.T) {
	base, max := 100*time.Millisecond, 2*time.Second
	for n := 1; n <= 10; n++ {
		a := Backoff("deadbeef", n, base, max)
		b := Backoff("deadbeef", n, base, max)
		if a != b {
			t.Fatalf("Backoff not deterministic at n=%d: %v vs %v", n, a, b)
		}
		if a > max {
			t.Fatalf("Backoff(%d) = %v exceeds cap %v", n, a, max)
		}
		floor := base << uint(n-1)
		if floor < max && a < floor {
			t.Fatalf("Backoff(%d) = %v below exponential floor %v", n, a, floor)
		}
	}
	if Backoff("aa", 3, base, max) == Backoff("bb", 3, base, max) {
		t.Fatal("different hashes produced identical jitter (suspicious)")
	}
}
