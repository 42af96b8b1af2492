package loadgen

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"coscale/internal/experiments"
	"coscale/internal/server"
	"coscale/internal/sim"
	"coscale/internal/workload"
)

const (
	serveSLO   = 50 * time.Millisecond // goodput counts completions within this
	serveTailP = 99
)

// serveFixture is one coscale-serve daemon on loopback and the generator's
// client.
type serveFixture struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func newServeFixture(ctx context.Context) (*serveFixture, error) {
	srv := server.New(server.Config{Workers: 2})
	f := &serveFixture{srv: srv, ts: httptest.NewServer(srv.Handler()), client: newClient(1)}
	if err := doJSON(ctx, f.client, "GET", f.ts.URL+"/readyz", nil, nil); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *serveFixture) close() {
	f.client.CloseIdleConnections()
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.srv.Drain(ctx) // the run is over; a slow drain only delays exit
}

// jobBody is the part of the server's job JSON the generator reads.
type jobBody struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// serveOut is what happened to one request. The request and its result are
// kept only where a check after the phase needs them — the sampled
// requests, and every request of a traced phase — so the generator's memory
// grows by little more than this record per request.
type serveOut struct {
	err      string
	hit      bool
	lines    int
	repeatOf int    // index of the repeated request, -1 for fresh
	sum      uint64 // FNV-1a of the result
	req      *serveReq
	result   json.RawMessage
}

func (o *serveOut) ok() bool { return o.err == "" }

// serveLoad is the closed loop's state across phases: the generator and
// what happened to every request it dealt, by request index (the number of
// requests dealt before it).
type serveLoad struct {
	f       *serveFixture
	gen     *serveGen
	outs    []serveOut
	settled int // outs before this index are settled
}

// phase sends requests one at a time, each as soon as the previous response
// is complete, until d has elapsed, and returns the phase's window and the
// index of its first request. Latency runs from sending a request to
// reading its complete response. Between requests, untimed, the last
// response is settled and the next request dealt.
func (l *serveLoad) phase(ctx context.Context, d time.Duration, tr *Tracer) (window, int, error) {
	gcNow()
	lo := len(l.outs)
	var r *serveReq
	var genErr error
	prep := func(int) {
		l.settle(tr != nil)
		var q serveReq
		q, genErr = l.gen.next()
		r = &q
	}
	op := func(int) error {
		if genErr != nil {
			return genErr
		}
		i := len(l.outs)
		o := serveOut{repeatOf: r.RepeatOf, req: r}
		s := tr.Now()
		if err := l.f.send(ctx, *r, &o); err != nil {
			o.err = err.Error()
		}
		tr.Span(0, 0, int64(i), "loadgen.request", s)
		l.outs = append(l.outs, o)
		return ctx.Err()
	}
	w, err := closedLoop(d, prep, op)
	l.settle(tr != nil)
	return w, lo, err
}

// settle reduces the responses since the last call to their FNV-1a sums,
// dropping each request and result unless keep is set (a traced phase) or
// the request is in the checked sample.
func (l *serveLoad) settle(keep bool) {
	for ; l.settled < len(l.outs); l.settled++ {
		o := &l.outs[l.settled]
		h := fnv.New64a()
		h.Write(o.result)
		o.sum = h.Sum64()
		if !keep && !o.req.Verify {
			o.req, o.result = nil, nil
		}
	}
}

// send issues one request: a blocking POST ?wait=1, or for streamed
// requests a POST followed by the NDJSON stream read to its terminal line.
func (f *serveFixture) send(ctx context.Context, r serveReq, o *serveOut) error {
	var jb jobBody
	if !r.Req.Stream {
		if err := doJSON(ctx, f.client, "POST", f.ts.URL+"/v1/simulate?wait=1", r.Body, &jb); err != nil {
			return err
		}
		if jb.State != server.StateDone || len(jb.Result) == 0 {
			return fmt.Errorf("job %s ended %s: %s", jb.ID, jb.State, jb.Error)
		}
		o.hit, o.result = jb.CacheHit, jb.Result
		return nil
	}
	if err := doJSON(ctx, f.client, "POST", f.ts.URL+"/v1/simulate", r.Body, &jb); err != nil {
		return err
	}
	o.hit = jb.CacheHit
	req, err := http.NewRequestWithContext(ctx, "GET", f.ts.URL+"/v1/jobs/"+jb.ID+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var last struct {
		Type   string          `json:"type"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		o.lines++
		last.Type = ""
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("stream line %d: %w", o.lines, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if last.Type != "result" || len(last.Result) == 0 {
		return fmt.Errorf("stream of job %s ended with %q: %s", jb.ID, last.Type, last.Error)
	}
	o.result = last.Result
	return nil
}

func runServe(ctx context.Context, cfg Config, res *Result, tr *Tracer) error {
	f, setupS, err := setupMedian(cfg.setups(), func() (*serveFixture, error) { return newServeFixture(ctx) }, (*serveFixture).close)
	if err != nil {
		return err
	}
	defer f.close()
	l := &serveLoad{f: f, gen: newServeGen(cfg.Seed)}

	// Warm-up fills the per-mix baselines, the platform tables and the LRU.
	if _, _, err := l.phase(ctx, cfg.Warmup, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for i, o := range l.outs {
		if !o.ok() {
			return fmt.Errorf("warm-up request %d: %s", i, o.err)
		}
	}
	if !cfg.Trace {
		w, lo, err := l.phase(ctx, cfg.Window, nil)
		if err != nil {
			return err
		}
		return serveEndToEnd(ctx, res, l, w, lo, setupS)
	}
	ref, refLo, err := l.phase(ctx, cfg.Window/2, nil)
	if err != nil {
		return err
	}
	before, err := scrape(ctx, f.client, f.ts.URL)
	if err != nil {
		return err
	}
	traced, lo, err := l.phase(ctx, cfg.Window/2, tr)
	if err != nil {
		return err
	}
	after, err := scrape(ctx, f.client, f.ts.URL)
	if err != nil {
		return err
	}
	l.check(ctx, res, refLo, lo, true)
	l.check(ctx, res, lo, len(l.outs), false)
	return serveLayers(ctx, res, tr, l, ref, traced, lo, before, after)
}

// check verifies a phase's responses after it ended: every request
// succeeded, every repeat returned its original's bytes (by their FNV-1a
// sums), and, when sample is set, the seeded 1-in-16 sample bit-matches an
// independent experiments.Runner run. (A traced phase instead bit-compares
// every replayed request.)
func (l *serveLoad) check(ctx context.Context, res *Result, lo, hi int, sample bool) {
	res.Attempted += hi - lo
	var ref *experiments.Runner
	for i := lo; i < hi; i++ {
		o := &l.outs[i]
		switch {
		case !o.ok():
			res.fail("request %d: %s", i, o.err)
		case o.repeatOf >= 0 && l.outs[o.repeatOf].ok() && o.sum != l.outs[o.repeatOf].sum:
			res.fail("request %d repeats %d but returned different bytes", i, o.repeatOf)
		case sample && o.req != nil && o.req.Verify:
			if ref == nil {
				ref = &experiments.Runner{}
			}
			if err := checkAgainstRunner(ctx, ref, o.req.Req, o.result); err != nil {
				res.fail("request %d: %v", i, err)
			}
		}
	}
}

// checkAgainstRunner recomputes q through experiments.Runner and requires
// the stack's result to match it bit for bit.
func checkAgainstRunner(ctx context.Context, r *experiments.Runner, q server.SimulateRequest, got json.RawMessage) error {
	n, err := q.Normalized()
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%s/b=%x", baselineKey(n), math.Float64bits(n.Bound))
	o, err := r.ExecuteContext(ctx, n.Workload, experiments.PolicyName(n.Policy), func(c *sim.Config) {
		mutateBase(n, c)
		c.Gamma = n.Bound
	}, key)
	if err != nil {
		return err
	}
	if err := sameResult(got, simulateResult(n, o)); err != nil {
		return fmt.Errorf("bound %g, against experiments.Runner: %w", n.Bound, err)
	}
	return nil
}

// quality returns the mean full-system energy savings and mean worst
// per-program slowdown, in percent, over the successful results.
func quality(results []json.RawMessage) (savingsPct, slowdownPct float64, err error) {
	var sav, slow []float64
	for _, raw := range results {
		var r server.SimulateResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, 0, err
		}
		sav = append(sav, 100*r.FullSavings)
		slow = append(slow, 100*r.WorstDegradation)
	}
	return mean(sav), mean(slow), nil
}

func serveEndToEnd(ctx context.Context, res *Result, l *serveLoad, w window, lo int, setupS float64) error {
	l.check(ctx, res, lo, len(l.outs), true)
	good, busy := 0, 0.0
	for i, o := range l.outs[lo:] {
		busy += w.lat[i] / 1000
		if o.ok() && w.lat[i] <= float64(serveSLO)/float64(time.Millisecond) {
			good++
		}
	}
	sav, slow, err := serveQuality(ctx, res, l.f)
	if err != nil {
		return err
	}
	endToEnd(res, w, serveTailP, float64(good)/busy, setupS, sav, slow)
	return nil
}

// serveQuality sends the daemon, after the window, the same 96 requests on
// every seed — each Table 1 mix under each practical policy at the paper's
// bound — checks each response bit for bit against experiments.Runner, and
// returns their mean energy savings and mean worst slowdown, in percent.
// The inputs do not depend on the seed, so the quality metrics read the
// same bits on every run of one build.
func serveQuality(ctx context.Context, res *Result, f *serveFixture) (savingsPct, slowdownPct float64, err error) {
	ref := &experiments.Runner{}
	var results []json.RawMessage
	for _, mix := range workload.Names() {
		for _, p := range experiments.PracticalPolicies {
			q := server.SimulateRequest{Workload: mix, Policy: string(p), Bound: server.DefaultBound, Instructions: serveInstr}
			body, err := json.Marshal(q)
			if err != nil {
				return 0, 0, err
			}
			var o serveOut
			if err := f.send(ctx, serveReq{Req: q, Body: body}, &o); err != nil {
				res.fail("quality request %s/%s: %v", mix, p, err)
				continue
			}
			if err := checkAgainstRunner(ctx, ref, q, o.result); err != nil {
				res.fail("quality request %s/%s: %v", mix, p, err)
				continue
			}
			results = append(results, o.result)
		}
	}
	return quality(results)
}

// serveLayers replays every request the traced phase executed, requires the
// replay to reproduce the server's result bit for bit, and reports the
// per-layer split: the replayed pipeline by layer, and the rest of the
// client's time as server overhead (HTTP, JSON, admission, queueing).
func serveLayers(ctx context.Context, res *Result, tr *Tracer, l *serveLoad, ref, traced window, lo int, before, after map[string]float64) error {
	rp := newReplayer(tr)
	var overhead []float64
	var clientNs, overNs float64
	lines := 0
	for i := lo; i < len(l.outs); i++ {
		o := &l.outs[i]
		lines += o.lines
		if !o.ok() || o.hit || o.repeatOf >= 0 {
			continue
		}
		want, d, err := rp.replay(ctx, o.req.Req, int64(i))
		if err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
		if err := sameResult(o.result, want); err != nil {
			res.fail("request %d, against its replay: %v", i, err)
		}
		client := traced.lat[i-lo] * float64(time.Millisecond)
		overhead = append(overhead, (client-float64(d))/float64(time.Millisecond))
		clientNs += client
		overNs += client - float64(d)
	}
	layerCommon(res, tr, ref, traced, len(traced.lat), gapP99(rootSpans(tr.Spans(), "loadgen.request")))
	layerReplay(res, analyze(tr.Spans()), rp)
	if clientNs > 0 {
		res.set("trace.unattributed_pct", 100*overNs/clientNs)
	}
	res.set("server.overhead_ms_p50", median(overhead))
	res.set("server.stream_lines", float64(lines))
	serverDeltas(res, []map[string]float64{before}, []map[string]float64{after})
	return nil
}

// serverDeltas reports the coscale-serve counters that moved between two
// scrapes of each server, summed over servers; job-latency quantiles are
// averaged over servers.
func serverDeltas(res *Result, before, after []map[string]float64) {
	var hits, misses, deduped, rejected, p50, p99 float64
	for k := range after {
		d := func(name string) float64 { return after[k][name] - before[k][name] }
		hits += d("coscale_cache_hits_total")
		misses += d("coscale_cache_misses_total")
		deduped += d("coscale_jobs_deduped_total")
		rejected += d("coscale_jobs_rejected_total")
		p50 += 1000 * after[k][`coscale_job_latency_seconds{quantile="0.5"}`] / float64(len(after))
		p99 += 1000 * after[k][`coscale_job_latency_seconds{quantile="0.99"}`] / float64(len(after))
	}
	if hits+misses > 0 {
		res.set("server.cache_hit_ratio", hits/(hits+misses))
	}
	res.set("server.deduped", deduped)
	res.set("server.rejected", rejected)
	res.set("server.job_ms_p50", p50)
	res.set("server.job_ms_p99", p99)
}
