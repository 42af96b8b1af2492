package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"coscale/internal/experiments"
	"coscale/internal/server"
	"coscale/internal/sim"
)

// quietLog discards worker/coordinator chatter in tests.
func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

// testWorker is one real coscale-serve instance behind an httptest listener.
type testWorker struct {
	id  string
	srv *server.Server
	ts  *httptest.Server
}

func startWorker(t *testing.T, id string) *testWorker {
	t.Helper()
	s := server.New(server.Config{Workers: 2, QueueDepth: 64, CacheSize: 64, WorkerID: id, Logger: quietLog()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testWorker{id: id, srv: s, ts: ts}
}

// e2eInstr keeps per-cell simulations fast while still multi-epoch.
const e2eInstr = 2_000_000

// refOutcome computes the single-node reference for one sweep cell through
// experiments.Runner — the same engine the figure generators use — with the
// mutations the serving layer applies for a default-normalized cell.
func refOutcome(t *testing.T, r *experiments.Runner, workloadName, policy string) *experiments.Outcome {
	t.Helper()
	o, err := r.Execute(workloadName, experiments.PolicyName(policy), func(c *sim.Config) {
		c.Gamma = server.DefaultBound
	}, "fleet-ref")
	if err != nil {
		t.Fatalf("reference %s/%s: %v", workloadName, policy, err)
	}
	return o
}

// bitsEq compares float64s for bit identity.
func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkCellBits asserts a fleet cell result is Float64bits-identical to the
// single-node runner outcome.
func checkCellBits(t *testing.T, cell CellStatus, o *experiments.Outcome) {
	t.Helper()
	var got server.SimulateResult
	if err := json.Unmarshal(cell.Result, &got); err != nil {
		t.Fatalf("cell %d result unmarshal: %v", cell.Index, err)
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"full_savings", got.FullSavings, o.FullSavings()},
		{"cpu_savings", got.CPUSavings, o.CPUSavings()},
		{"mem_savings", got.MemSavings, o.MemSavings()},
		{"avg_degradation", got.AvgDegradation, o.AvgDegradation()},
		{"worst_degradation", got.WorstDegradation, o.WorstDegradation()},
		{"wall_time", got.WallTime, o.Run.WallTime},
		{"energy_total", got.Energy.Total, o.Run.Energy.Total()},
		{"baseline_wall_time", got.Baseline.WallTime, o.Base.WallTime},
	}
	for _, c := range checks {
		if !bitsEq(c.got, c.want) {
			t.Errorf("cell %s/%s %s = %x, want %x (not bit-identical to single-node runner)",
				cell.Workload, cell.Policy, c.name, math.Float64bits(c.got), math.Float64bits(c.want))
		}
	}
	wantDeg := o.Degradations()
	if len(got.Degradations) != len(wantDeg) {
		t.Fatalf("cell %s/%s degradations len %d, want %d", cell.Workload, cell.Policy, len(got.Degradations), len(wantDeg))
	}
	for i := range wantDeg {
		if !bitsEq(got.Degradations[i], wantDeg[i]) {
			t.Errorf("cell %s/%s degradation[%d] not bit-identical", cell.Workload, cell.Policy, i)
		}
	}
	if got.Epochs != o.Run.Epochs {
		t.Errorf("cell %s/%s epochs = %d, want %d", cell.Workload, cell.Policy, got.Epochs, o.Run.Epochs)
	}
}

// auditJournal checks the attempt accounting after a completed sweep: every
// job has exactly one committing done record, lease attempts count up from 1
// without gaps, and nothing exceeds the attempt cap — i.e. no job was lost
// and none double-committed.
func auditJournal(t *testing.T, path string, wantJobs, maxAttempts int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, _, err := scanJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	leases := map[string]int{}
	dones := map[string]int{}
	failed := map[string]int{}
	jobs := map[string]bool{}
	for _, rec := range recs {
		switch rec.Type {
		case "job":
			jobs[rec.Job] = true
		case "lease":
			if rec.Attempt != leases[rec.Job]+1 {
				t.Errorf("job %s lease attempt %d follows %d (gap or replay)", rec.Job, rec.Attempt, leases[rec.Job])
			}
			leases[rec.Job] = rec.Attempt
			if rec.Attempt > maxAttempts {
				t.Errorf("job %s leased attempt %d beyond cap %d", rec.Job, rec.Attempt, maxAttempts)
			}
		case "done":
			dones[rec.Job]++
		case "failed":
			failed[rec.Job]++
		}
	}
	if len(jobs) != wantJobs {
		t.Fatalf("journal has %d job records, want %d", len(jobs), wantJobs)
	}
	for job := range jobs {
		if dones[job] != 1 {
			t.Errorf("job %s has %d done records, want exactly 1 (lost or double-committed)", job, dones[job])
		}
		if failed[job] != 0 {
			t.Errorf("job %s failed terminally", job)
		}
		if leases[job] == 0 {
			t.Errorf("job %s was never leased", job)
		}
	}
}

// TestFleetChaosE2E is the acceptance scenario: three live workers, a seeded
// chaos plan injecting refusals, response drops, mid-stream cuts, latency
// spikes and heartbeat loss, and a deliberate kill of one worker mid-sweep.
// The sweep must complete with results Float64bits-identical to the
// single-node experiments runner, the journal must account every attempt
// with exactly one commit per job, and the injected fault log must replay
// bit-identically from the seed.
func TestFleetChaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end test")
	}
	workers := []*testWorker{startWorker(t, "w1"), startWorker(t, "w2"), startWorker(t, "w3")}

	plan := ChaosPlan{
		Seed:              42,
		RefuseProb:        0.12,
		DropProb:          0.08,
		CutProb:           0.08,
		LatencyProb:       0.15,
		LatencyMin:        time.Millisecond,
		LatencyMax:        5 * time.Millisecond,
		HeartbeatLossProb: 0.15,
	}
	chaos := &ChaosTransport{
		Inner: &HTTPTransport{Client: &Client{Retries: 1, BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond}},
		Plan:  plan,
	}

	journal := filepath.Join(t.TempDir(), "fleet.journal")
	coord, err := New(Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectAfter:      150 * time.Millisecond,
		DeadAfter:         300 * time.Millisecond,
		SchedTick:         5 * time.Millisecond,
		JobTimeout:        30 * time.Second,
		// The retry budget must outlive dead detection: a killed worker's
		// cells burn real refusals until it goes suspect (150ms), so eight
		// attempts spread over ~900ms of backoff leave a wide margin.
		MaxAttempts: 8,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
		JournalPath: journal,
		Transport:   chaos,
		Logger:      quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	// Real agents heartbeat each worker in, with seeded heartbeat loss.
	agentCtx, stopAgents := context.WithCancel(context.Background())
	defer stopAgents()
	agentCancel := map[string]context.CancelFunc{}
	for _, w := range workers {
		w := w
		wctx, cancel := context.WithCancel(agentCtx)
		agentCancel[w.id] = cancel
		a := &Agent{
			ID: w.id, Addr: w.ts.URL, Coordinator: cts.URL,
			Ready: w.srv.Ready, DropBeat: chaos.DropBeat(w.id),
			Interval: 20 * time.Millisecond, Logger: quietLog(),
		}
		//lint:ignore dettaint test harness goroutine
		go a.Run(wctx)
	}
	waitFor(t, 10*time.Second, "fleet ready", func() bool { return coord.Ready().Ready })

	// The full default sweep — all 16 workloads × the 6 practical policies —
	// keeps the fleet busy long enough that the kill below lands mid-flight.
	req := server.SweepRequest{Instructions: e2eInstr}
	body, _ := json.Marshal(req)
	resp, err := http.Post(cts.URL+"/v1/fleet/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	const wantCells = 96 // 16 workloads × 6 practical policies
	if resp.StatusCode != http.StatusAccepted || st.Total != wantCells {
		t.Fatalf("submit: status %d, total %d, want %d", resp.StatusCode, st.Total, wantCells)
	}

	// The ring is a pure function of the worker set, so the primary owner of
	// each cell is known in advance; kill the busiest worker mid-sweep.
	ring := NewRing()
	for _, w := range workers {
		ring.Add(w.id)
	}
	owned := map[string]int{}
	for _, c := range st.Cells {
		owner, _ := ring.Lookup(c.Hash, nil)
		owned[owner]++
	}
	victim := workers[0].id
	for _, w := range workers {
		if owned[w.id] > owned[victim] {
			victim = w.id
		}
	}
	if owned[victim] == 0 {
		t.Fatalf("ring assigned nothing to any worker: %v", owned)
	}

	// Kill the victim once the sweep is demonstrably mid-flight: at least
	// one cell committed, and not all of them.
	waitFor(t, 60*time.Second, "first commit", func() bool {
		cur, _, _ := coord.Status(st.ID)
		return cur.Done >= 1
	})
	agentCancel[victim]() // heartbeats stop
	for _, w := range workers {
		if w.id == victim {
			w.ts.Close() // connections refused from here on
		}
	}
	t.Logf("killed worker %s (owned %d of %d cells)", victim, owned[victim], st.Total)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := coord.WaitSweep(ctx, st.ID)
	if err != nil {
		t.Fatalf("sweep did not complete: %v (status %+v)", err, final)
	}
	if final.State != "done" || final.Done != wantCells || final.Failed != 0 {
		t.Fatalf("final: state %s, %d/%d done, %d failed — jobs were lost",
			final.State, final.Done, wantCells, final.Failed)
	}

	// Bit-identity against the single-node runner, cell by cell.
	runner := experiments.NewRunner(e2eInstr)
	for _, cell := range final.Cells {
		if len(cell.Result) == 0 {
			t.Fatalf("cell %d done with no result", cell.Index)
		}
		checkCellBits(t, cell, refOutcome(t, runner, cell.Workload, cell.Policy))
	}

	// Journal attempt accounting: nothing lost, nothing double-committed.
	auditJournal(t, journal, wantCells, 8)

	// Chaos actually happened, and the event log replays from the seed.
	events := chaos.Events()
	var execFaults, beatDrops int
	replay := ChaosPlan{Seed: plan.Seed, RefuseProb: plan.RefuseProb, DropProb: plan.DropProb,
		CutProb: plan.CutProb, LatencyProb: plan.LatencyProb,
		LatencyMin: plan.LatencyMin, LatencyMax: plan.LatencyMax, HeartbeatLossProb: plan.HeartbeatLossProb}
	for _, ev := range events {
		switch ev.Op {
		case "execute":
			execFaults++
			if got := replay.Execute(ev.Worker, ev.Key, ev.Attempt); got != ev.Fault {
				t.Errorf("event %+v does not replay from seed: fresh plan says %q", ev, got)
			}
		case "heartbeat":
			beatDrops++
			if !replay.DropHeartbeat(ev.Worker, ev.Attempt) {
				t.Errorf("heartbeat drop %+v does not replay from seed", ev)
			}
		}
	}
	if execFaults == 0 {
		t.Error("chaos injected no transport faults — scenario is vacuous")
	}
	if beatDrops == 0 {
		t.Error("chaos dropped no heartbeats — scenario is vacuous")
	}
	t.Logf("chaos: %d transport faults, %d dropped heartbeats, victim=%s", execFaults, beatDrops, victim)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorRestartRecovers crashes the coordinator mid-sweep and
// proves the journal brings the successor back without losing commits or
// recomputing finished cells: done results survive byte-for-byte, leased
// jobs replay to pending, and the total number of simulations actually
// executed across the fleet equals the number of distinct cells.
func TestCoordinatorRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end test")
	}
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")
	journal := filepath.Join(t.TempDir(), "fleet.journal")
	cfg := Config{
		// Registration-only liveness: generous TTLs stand in for agents.
		HeartbeatInterval: time.Second,
		SuspectAfter:      time.Hour,
		DeadAfter:         2 * time.Hour,
		SchedTick:         5 * time.Millisecond,
		JobTimeout:        30 * time.Second,
		MaxAttempts:       4,
		BackoffBase:       5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		// A cap higher than the cell count keeps routing purely
		// ring-primary (no overflow onto the fallback worker), which is
		// what makes the executed-exactly-once assertion below exact.
		MaxInflightPerWorker: 32,
		JournalPath:          journal,
		Transport:            &HTTPTransport{},
		Logger:               quietLog(),
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1.register(w1.id, w1.ts.URL)
	c1.register(w2.id, w2.ts.URL)

	// 4 workloads × the 6 practical policies = 24 cells, enough that the
	// coordinator goes down with work still outstanding.
	st, err := c1.Submit(server.SweepRequest{
		Workloads:    []string{"MEM1", "MID1", "MIX1", "ILP1"},
		Instructions: e2eInstr,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "first commit before crash", func() bool {
		cur, _, _ := c1.Status(st.ID)
		return cur.Done >= 1
	})
	mid, _, err := c1.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil { // the "crash": in-flight leases simply stop
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer c2.Close()
	rec, ok, err := c2.Status(st.ID)
	if err != nil || !ok {
		t.Fatalf("sweep lost across restart: %v", err)
	}
	if rec.Done < mid.Done {
		t.Fatalf("commits lost across restart: %d < %d", rec.Done, mid.Done)
	}
	if rec.Leased != 0 {
		t.Fatalf("replay left %d jobs leased; they must return to pending", rec.Leased)
	}
	for i, cell := range rec.Cells {
		if mid.Cells[i].State == JobDone && !bytes.Equal(cell.Result, mid.Cells[i].Result) {
			t.Fatalf("cell %d result changed across restart", i)
		}
	}

	c2.register(w1.id, w1.ts.URL)
	c2.register(w2.id, w2.ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := c2.WaitSweep(ctx, st.ID)
	if err != nil {
		t.Fatalf("sweep did not finish after restart: %v (%+v)", err, final)
	}
	if final.State != "done" || final.Done != 24 {
		t.Fatalf("final: state %s, %d/24 done", final.State, final.Done)
	}
	// The no-recompute guarantee: the ring routes each cell to the same
	// worker before and after the restart, and re-leased cells hit that
	// worker's cache (or attach to the still-running job), so the fleet
	// executed each distinct cell exactly once.
	if n := w1.srv.ExecutedJobs() + w2.srv.ExecutedJobs(); n != 24 {
		t.Fatalf("fleet executed %d simulations for 24 cells — finished scenarios were recomputed", n)
	}
	auditJournal(t, journal, 24, 4)
}

// TestSubmitShedsWithoutWorkers verifies the explicit degraded mode: a
// fleet with zero live workers refuses new sweeps with 503 and a jittered
// Retry-After instead of accepting work it cannot progress.
func TestSubmitShedsWithoutWorkers(t *testing.T) {
	c, err := New(Config{Transport: okTransport{}, Logger: quietLog(),
		RetryAfterSeconds: 1, RetryAfterJitterSeconds: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		resp, err := http.Post(ts.URL+"/v1/fleet/sweeps", "application/json",
			bytes.NewReader([]byte(`{"workloads":["MEM1"],"policies":["CoScale"]}`)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit with no workers: status %d, want 503", resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatal("503 without Retry-After")
		}
		if ra != "1" && ra != "2" && ra != "3" && ra != "4" {
			t.Fatalf("Retry-After %q outside jitter window [1,4]", ra)
		}
		seen[ra] = true
	}
	if len(seen) < 2 {
		t.Fatalf("Retry-After never varied (%v) — jitter is not spreading the stampede", seen)
	}
	// Readiness mirrors the degraded mode.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no workers: status %d, want 503", resp.StatusCode)
	}
}
