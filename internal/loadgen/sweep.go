package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"coscale/internal/experiments"
	"coscale/internal/fleet"
	"coscale/internal/server"
	"coscale/internal/workload"
)

const (
	sweepWorkers = 2
	sweepCells   = 96   // 16 mixes × 6 practical policies, the default sweep
	sweepStep    = 1e-4 // sweep k runs at bound 0.10 + k·sweepStep
	sweepTailP   = 75   // a 20 s window holds 41 or more sweeps: ten or more beyond p75
	// Bound-invariant tolerance of the repository's property test
	// (experiments/bound_test.go): worst degradation may exceed the bound
	// by this much, and Uncoordinated, which spends the slack twice, twice
	// the bound plus this much.
	boundTolerance = 0.015
)

// sweepFixture is a fleet coordinator with an on-disk journal and two
// coscale-serve workers joined through real agents, all on loopback.
type sweepFixture struct {
	dir     string
	journal string
	tt      *timedTransport
	coord   *fleet.Coordinator
	cts     *httptest.Server
	srvs    []*server.Server
	wts     []*httptest.Server
	stop    context.CancelFunc
	agents  sync.WaitGroup
	client  *http.Client
}

func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

func newSweepFixture(ctx context.Context, scratch string) (*sweepFixture, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &sweepFixture{dir: dir, journal: filepath.Join(dir, "journal"), client: newClient(1)}
	f.tt = &timedTransport{inner: &fleet.HTTPTransport{}}
	if f.coord, err = fleet.New(fleet.Config{JournalPath: f.journal, Transport: f.tt, Logger: quietLog()}); err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	f.cts = httptest.NewServer(f.coord.Handler())
	actx, stop := context.WithCancel(context.Background())
	f.stop = stop
	for i := range sweepWorkers {
		id := fmt.Sprintf("w%d", i+1)
		srv := server.New(server.Config{Workers: 1, WorkerID: id})
		ts := httptest.NewServer(srv.Handler())
		f.srvs, f.wts = append(f.srvs, srv), append(f.wts, ts)
		a := &fleet.Agent{ID: id, Addr: ts.URL, Coordinator: f.cts.URL, Ready: srv.Ready, Logger: quietLog()}
		f.agents.Add(1)
		go func() {
			defer f.agents.Done()
			_ = a.Run(actx) // returns when the fixture closes
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for f.coord.Ready().WorkersLive < sweepWorkers {
		if time.Now().After(deadline) || ctx.Err() != nil {
			f.close()
			return nil, fmt.Errorf("workers did not join the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

func (f *sweepFixture) close() {
	f.stop()
	f.agents.Wait()
	f.client.CloseIdleConnections()
	f.cts.Close()
	_ = f.coord.Close() // the journal is scratch; nothing reads it after the run
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, ts := range f.wts {
		ts.Close()
		_ = f.srvs[i].Drain(ctx)
	}
	_ = os.RemoveAll(f.dir)
}

// timedTransport is the coordinator's lease transport with a span around
// every lease execution, recorded under the sweep being waited on.
type timedTransport struct {
	inner  fleet.Transport
	tr     atomic.Pointer[Tracer]
	parent atomic.Int64 // span of the current sweep's wait
	req    atomic.Int64
	mu     sync.Mutex
	leases []lease
}

// lease is one traced lease execution.
type lease struct {
	worker, hash string
	span         Span
}

func (t *timedTransport) Execute(ctx context.Context, w fleet.Endpoint, job fleet.JobSpec) (fleet.JobResult, error) {
	tr := t.tr.Load()
	s := tr.Now()
	res, err := t.inner.Execute(ctx, w, job)
	if tr != nil {
		sp := Span{ID: tr.NewID(), Parent: t.parent.Load(), Req: t.req.Load(), Name: "fleet.lease", Start: s, End: tr.Now()}
		tr.Add(sp)
		t.mu.Lock()
		t.leases = append(t.leases, lease{worker: w.ID, hash: job.Hash, span: sp})
		t.mu.Unlock()
	}
	return res, err
}

// sweepReq builds sweep k: every mix in a seeded order under the six
// practical policies, at bound 0.10 + k·1e-4, so its cells miss every
// worker's result cache while sharing their baselines. Sweep 0 runs at the
// paper's bound.
func sweepReq(seed uint64, k int) ([]byte, error) {
	mixes := workload.Names()
	rng := newRand(seed+uint64(k), tagSweep)
	for i := len(mixes) - 1; i > 0; i-- {
		j := int(rng.Intn(uint64(i + 1)))
		mixes[i], mixes[j] = mixes[j], mixes[i]
	}
	return json.Marshal(server.SweepRequest{Workloads: mixes, Bound: server.DefaultBound + sweepStep*float64(k)})
}

// sweep submits one sweep and waits for it, returning its final status.
func (f *sweepFixture) sweep(ctx context.Context, body []byte, tr *Tracer, req int64) (fleet.SweepStatus, error) {
	root, t0 := tr.NewID(), tr.Now()
	defer func() { tr.Span(root, 0, req, "loadgen.sweep", t0) }()
	var st fleet.SweepStatus
	s := tr.Now()
	err := doJSON(ctx, f.client, "POST", f.cts.URL+"/v1/fleet/sweeps", body, &st)
	tr.Span(0, root, req, "fleet.submit", s)
	if err != nil {
		return st, err
	}
	wait := tr.NewID()
	f.tt.parent.Store(wait)
	f.tt.req.Store(req)
	s = tr.Now()
	err = doJSON(ctx, f.client, "GET", f.cts.URL+"/v1/fleet/sweeps/"+st.ID+"?wait=1", nil, &st)
	tr.Span(wait, root, req, "fleet.wait", s)
	if err == nil && (st.State != "done" || st.Done != sweepCells) {
		err = fmt.Errorf("sweep %s ended %s with %d/%d cells done", st.ID, st.State, st.Done, sweepCells)
	}
	return st, err
}

func runSweep(ctx context.Context, cfg Config, res *Result, tr *Tracer) error {
	f, setupS, err := setupMedian(cfg.setups(), func() (*sweepFixture, error) { return newSweepFixture(ctx, cfg.Dir) }, (*sweepFixture).close)
	if err != nil {
		return err
	}
	defer f.close()
	warm, err := json.Marshal(server.SweepRequest{Bound: server.DefaultBound - sweepStep})
	if err != nil {
		return err
	}
	if _, err := f.sweep(ctx, warm, nil, 0); err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}

	// k numbers sweeps across windows, so no sweep repeats a bound.
	k, firstK := 0, 0
	var first fleet.SweepStatus // the first sweep of the window being run
	var opTr *Tracer
	op := func(i int) error {
		body, err := sweepReq(cfg.Seed, k)
		if err != nil {
			return err
		}
		st, err := f.sweep(ctx, body, opTr, int64(k))
		if err != nil {
			return err
		}
		if i == 0 {
			first, firstK = st, k
		}
		k++
		return nil
	}
	gcNow()
	if !cfg.Trace {
		w, err := closedLoop(cfg.Window, nil, op)
		if err != nil {
			return err
		}
		res.Attempted += len(w.lat)
		sav, slow := checkSweep0(ctx, res, first)
		endToEnd(res, w, sweepTailP, busyRate(w, sweepCells), setupS, sav, slow)
		return nil
	}
	ref, err := closedLoop(cfg.Window/2, nil, op)
	if err != nil {
		return err
	}
	checkSweep0(ctx, res, first)
	before, err := f.scrapeAll(ctx)
	if err != nil {
		return err
	}
	jBefore, err := fileSize(f.journal)
	if err != nil {
		return err
	}
	opTr = tr
	f.tt.tr.Store(tr)
	gcNow()
	traced, err := closedLoop(cfg.Window/2, nil, op)
	f.tt.tr.Store(nil)
	if err != nil {
		return err
	}
	after, err := f.scrapeAll(ctx)
	if err != nil {
		return err
	}
	jAfter, err := fileSize(f.journal)
	if err != nil {
		return err
	}
	res.Attempted += len(ref.lat) + len(traced.lat)
	bound := server.DefaultBound + sweepStep*float64(firstK)
	return sweepLayers(ctx, res, tr, f, first, bound, ref, traced, before, after, float64(jAfter-jBefore))
}

// checkSweep0 verifies every cell of the paper-bound sweep: its result
// must match an independent experiments.Runner run bit for bit, and its
// worst degradation must stay within the bound plus the property test's
// tolerance. It returns the CoScale cells' mean energy savings and mean
// worst slowdown, in percent, summed in mix-name order rather than the
// seeded sweep order so that every seed reads the same bits.
func checkSweep0(ctx context.Context, res *Result, st fleet.SweepStatus) (savingsPct, slowdownPct float64) {
	ref := &experiments.Runner{}
	co := map[string]json.RawMessage{}
	for _, c := range st.Cells {
		q := server.SimulateRequest{Workload: c.Workload, Policy: c.Policy, Bound: server.DefaultBound}
		if err := checkAgainstRunner(ctx, ref, q, c.Result); err != nil {
			res.fail("sweep-0 cell %d: %v", c.Index, err)
			continue
		}
		var r server.SimulateResult
		if err := json.Unmarshal(c.Result, &r); err != nil {
			res.fail("sweep-0 cell %d: %v", c.Index, err)
			continue
		}
		limit := server.DefaultBound + boundTolerance
		if c.Policy == string(experiments.UncoordName) {
			limit = 2*server.DefaultBound + boundTolerance
		}
		if r.WorstDegradation > limit {
			res.fail("sweep-0 cell %s/%s: worst degradation %.4f exceeds %.4f", c.Workload, c.Policy, r.WorstDegradation, limit)
		}
		if c.Policy == string(experiments.CoScaleName) {
			co[c.Workload] = c.Result
		}
	}
	if len(st.Cells) != sweepCells {
		res.fail("sweep 0 has %d cells, want %d", len(st.Cells), sweepCells)
	}
	var ordered []json.RawMessage
	for _, mix := range workload.Names() {
		if r, ok := co[mix]; ok {
			ordered = append(ordered, r)
		}
	}
	sav, slow, err := quality(ordered)
	if err != nil {
		res.fail("sweep-0 results: %v", err)
	}
	return sav, slow
}

// scrapeAll reads the coordinator's /metrics and then each worker's.
func (f *sweepFixture) scrapeAll(ctx context.Context) ([]map[string]float64, error) {
	servers := append([]*httptest.Server{f.cts}, f.wts...)
	out := make([]map[string]float64, len(servers))
	for i, ts := range servers {
		m, err := scrape(ctx, f.client, ts.URL)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// sweepLayers reports the fleet's layers from the traced sweeps' spans and
// the coordinator's and workers' counters, then replays the first traced
// sweep's cells (run at bound) in-process for the layers below the server.
func sweepLayers(ctx context.Context, res *Result, tr *Tracer, f *sweepFixture, first fleet.SweepStatus, bound float64, ref, traced window, before, after []map[string]float64, journalBytes float64) error {
	f.tt.mu.Lock()
	leases := append([]lease(nil), f.tt.leases...)
	f.tt.mu.Unlock()
	byHash := map[string]float64{}
	for _, l := range leases {
		if _, ok := byHash[l.hash]; !ok {
			byHash[l.hash] = float64(l.span.End - l.span.Start)
		}
	}
	rp := newReplayer(tr)
	var overhead []float64
	for _, c := range first.Cells {
		q := server.SimulateRequest{Workload: c.Workload, Policy: c.Policy, Bound: bound}
		want, d, err := rp.replay(ctx, q, int64(c.Index))
		if err != nil {
			return fmt.Errorf("replay cell %d: %w", c.Index, err)
		}
		if err := sameResult(c.Result, want); err != nil {
			res.fail("cell %d, against its replay: %v", c.Index, err)
		}
		if l, ok := byHash[c.Hash]; ok {
			overhead = append(overhead, (l-float64(d))/float64(time.Millisecond))
		}
	}
	st := analyze(tr.Spans())
	sweeps := rootSpans(tr.Spans(), "loadgen.sweep")
	layerCommon(res, tr, ref, traced, len(traced.lat), gapP99(sweeps))
	layerReplay(res, st, rp)
	res.set("trace.unattributed_pct", st.unattributedPct())
	res.set("server.overhead_ms_p50", median(overhead))
	serverDeltas(res, before[1:], after[1:])
	d := func(name string) float64 { return after[0][name] - before[0][name] }
	res.set("fleet.dispatched", d("coscale_fleet_leases_dispatched_total"))
	res.set("fleet.retried", d("coscale_fleet_attempts_retried_total"))
	res.set("fleet.duplicates", d("coscale_fleet_duplicate_results_total"))
	ms := time.Millisecond
	res.set("fleet.submit_ms_p50", st.p("fleet.submit", 50, ms))
	res.set("fleet.lease_ms_p50", st.p("fleet.lease", 50, ms))
	res.set("fleet.lease_ms_p99", st.p("fleet.lease", 99, ms))
	if n := len(traced.lat); n > 0 {
		res.set("fleet.journal_bytes_per_sweep", journalBytes/float64(n))
	}
	res.set("fleet.worker_idle_frac", idleFrac(sweeps, leases))
	return nil
}

// idleFrac is the mean, over traced sweeps and workers, of the share of a
// sweep's makespan during which the worker held no lease.
func idleFrac(sweeps []Span, leases []lease) float64 {
	var fracs []float64
	for _, sw := range sweeps {
		for i := range sweepWorkers {
			id := fmt.Sprintf("w%d", i+1)
			var kids []Span
			for _, l := range leases {
				if l.worker == id && l.span.Req == sw.Req {
					kids = append(kids, l.span)
				}
			}
			if d := sw.End - sw.Start; d > 0 {
				fracs = append(fracs, 1-float64(covered(sw, kids))/float64(d))
			}
		}
	}
	return mean(fracs)
}

// rootSpans returns the op spans named name, in the order they were recorded.
func rootSpans(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
