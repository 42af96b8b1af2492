// Package loadgen is the repository's end-to-end benchmark: seeded,
// replayable workloads that drive the real serving, fleet and controller
// stack in-process through its public APIs, check every output they can
// against an independent reference, and report end-to-end metrics from
// untraced runs and per-layer metrics from traced ones.
//
// Four workloads stress different layers (cmd/coscale-loadgen/README.md
// records why each was chosen and which layer metric should move which
// end-to-end metric on which workload):
//
//   - serve-closed: one client sending back-to-back requests to a
//     coscale-serve daemon (server.New behind httptest): HTTP, admission,
//     the LRU, the engine and every practical policy.
//   - sweep-fleet: closed-loop back-to-back 96-cell sweeps through a
//     fleet coordinator with a journal and two joined workers.
//   - control-1024: closed-loop CoScale decisions at 1024 cores, the §3.1
//     scalability claim, bypassing server and engine.
//   - powercap-fleet: closed-loop fastcap rebalancing epochs over eight
//     16-core nodes under a cap-event budget trace.
//
// The i-th input of a run is a pure function of (workload, seed, i); how
// many inputs a window gets through depends on how fast the stack answers.
// The stack under test only ever receives the generated inputs.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// subWindows is how many equal parts an end-to-end window is cut into for
// the per-sub-window latency diagnostics.
const subWindows = 5

// Workload names, in the order -all runs them.
var Workloads = []string{"serve-closed", "sweep-fleet", "control-1024", "powercap-fleet"}

// Config selects and sizes one workload run.
type Config struct {
	// Workload is one of Workloads.
	Workload string
	// Seed drives every generated input.
	Seed uint64
	// Window is the timed measurement window. A traced run splits it into
	// an untraced reference half and a traced half.
	Window time.Duration
	// Trace records spans and reports per-layer metrics instead of
	// end-to-end ones.
	Trace bool
	// Spans, when non-nil on a traced run, receives every span as one JSON
	// line.
	Spans io.Writer
	// Warmup is the untimed serve-closed warm-up (default 5s).
	Warmup time.Duration
	// Dir holds scratch files such as the fleet journal (default
	// ".bench_build").
	Dir string
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 20 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 5 * time.Second
	}
	if c.Dir == "" {
		c.Dir = ".bench_build"
	}
	return c
}

// setups is how many times a run builds its fixture; setup_s is the median
// build time. A traced run reports no setup_s and builds once.
func (c Config) setups() int {
	if c.Trace {
		return 1
	}
	return 15
}

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one workload run: its environment, its checks, and its metrics.
type Result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Env      Env     `json:"env"`
	WindowS  float64 `json:"window_s"`
	WarmupS  float64 `json:"warmup_s,omitempty"`

	// Attempted counts ops (requests, sweeps, decisions, epochs) issued in
	// the timed windows; Failed counts those that failed, were refused or
	// failed verification, plus failed whole-run checks.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Correct   bool     `json:"correct"`
	Failures  []string `json:"failures,omitempty"`

	// Samples is the window's latency sample count; TailPercentile is the
	// percentile latency_tail_ms reports and BeyondTail the samples beyond
	// it.
	Samples int `json:"samples"`
	// SubP50Ms and SubTailMs are the latency median and tail of each of
	// SubWindows equal parts of the window, a diagnostic that shows whether
	// a slow run was slow throughout or in bursts.
	SubWindows int       `json:"sub_windows"`
	SubP50Ms   []float64 `json:"sub_p50_ms,omitempty"`
	SubTailMs  []float64 `json:"sub_tail_ms,omitempty"`
	// RSSSamples is how many resident-set samples mem_rss_mb is the median
	// of.
	RSSSamples     int     `json:"rss_samples"`
	TailPercentile float64 `json:"tail_percentile"`
	BeyondTail     int     `json:"beyond_tail"`

	Metrics map[string]Metric `json:"metrics"`
}

// maxFailures bounds the failure messages kept in a Result.
const maxFailures = 20

// fail records a failed op or check.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *Result) set(name string, v float64) {
	r.Metrics[name] = Metric{Value: v, Unit: units[name]}
}

// Names returns the metric names a run reports: the end-to-end catalogue
// untraced, the per-layer catalogue traced.
func Names(trace bool) []string {
	src := EndToEnd
	if trace {
		src = PerLayer
	}
	out := make([]string, 0, len(src))
	for _, m := range src {
		out = append(out, m.Name)
	}
	return out
}

// Run executes one workload and returns its result. An error means the run
// could not be carried out at all; failed checks are reported in the
// Result.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
		Trace:    cfg.Trace,
		Env:      CurrentEnv(),
		WindowS:  cfg.Window.Seconds(),
		Metrics:  map[string]Metric{},
	}
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer()
	}
	var err error
	switch cfg.Workload {
	case "serve-closed":
		res.WarmupS = cfg.Warmup.Seconds()
		err = runServe(ctx, cfg, res, tr)
	case "sweep-fleet":
		err = runSweep(ctx, cfg, res, tr)
	case "control-1024":
		err = runControl(ctx, cfg, res, tr)
	case "powercap-fleet":
		err = runPowerCap(ctx, cfg, res, tr)
	default:
		return nil, fmt.Errorf("loadgen: unknown workload %q (want one of %v)", cfg.Workload, Workloads)
	}
	if err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", cfg.Workload, err)
	}
	if tr != nil && cfg.Spans != nil {
		if err := tr.WriteJSONL(cfg.Spans, cfg.Workload); err != nil {
			return nil, fmt.Errorf("loadgen: write spans: %w", err)
		}
	}
	for _, name := range Names(cfg.Trace) {
		if _, ok := res.Metrics[name]; !ok {
			res.set(name, 0) // a layer this workload bypasses
		}
	}
	if res.Attempted > 0 {
		res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// setupMedian builds a workload's fixture n times, timing each build until
// it is ready for the first op, and returns the last fixture (the others
// are closed) with the median build time in seconds. Building several times
// keeps one slow start from deciding setup_s; collecting the previous
// fixture before each build keeps its garbage out of the next build's time.
func setupMedian[F any](n int, build func() (F, error), closeF func(F)) (F, float64, error) {
	var f F
	times := make([]float64, 0, n)
	for i := range n {
		if i > 0 {
			closeF(f)
			f = *new(F)
			gcNow()
		}
		t0 := time.Now()
		var err error
		if f, err = build(); err != nil {
			return f, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return f, median(times), nil
}

// rssEvery is the least time between two resident-set samples of a window.
// mem_rss_mb is the median sample: the peak resident set of a
// garbage-collected process moves between runs with how far the heap
// overshoots its goal while a collection runs, its median far less.
const rssEvery = 10 * time.Millisecond

// window is the measured part of a run: per-op latencies and start times,
// resident-set samples, and the runtime counters around it.
type window struct {
	lat  []float64       // ms per op
	at   []time.Duration // when each op started, from the window start
	span time.Duration   // configured window length
	rss  []float64       // resident set in MB, after an op at most every rssEvery
	rt   runtimeDelta
}

// closedLoop runs op back to back on the calling goroutine until d has
// elapsed, timing each call, and returns the latencies. prep, when non-nil,
// runs untimed before each op to pick its input or snapshot state for
// verification; every op it prepares runs. i counts ops from the first call
// of the window.
func closedLoop(d time.Duration, prep func(i int), op func(i int) error) (window, error) {
	w := window{span: d}
	var nextRSS time.Time
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if prep != nil {
			prep(i)
		}
		t0 := time.Now()
		if err := op(i); err != nil {
			return w, err
		}
		w.lat = append(w.lat, float64(time.Since(t0))/float64(time.Millisecond))
		w.at = append(w.at, t0.Sub(start))
		if now := time.Now(); !now.Before(nextRSS) {
			nextRSS = now.Add(rssEvery)
			w.rss = append(w.rss, rssMB())
		}
	}
	w.rt = readRuntime().sub(before, time.Since(start), len(w.lat))
	return w, nil
}

// split cuts w into sub equal sub-windows by op start and returns each
// sub-window's op indices.
func (w window) split(sub int) [][]int {
	parts := make([][]int, sub)
	for i, at := range w.at {
		k := min(int(int64(at)*int64(sub)/int64(w.span)), sub-1)
		parts[k] = append(parts[k], i)
	}
	return parts
}

// busyRate is a closed loop's goodput: perOp units of work per second of
// the time its ops took.
func busyRate(w window, perOp float64) float64 {
	busy := 0.0
	for _, l := range w.lat {
		busy += l / 1000
	}
	if busy <= 0 {
		return 0
	}
	return perOp * float64(len(w.lat)) / busy
}

// endToEnd fills the end-to-end metrics shared by every workload: the
// latency median and tail over the whole window, and each sub-window's as
// a diagnostic.
func endToEnd(res *Result, w window, tailP, goodput, setupS, savingsPct, slowdownPct float64) {
	res.SubP50Ms, res.SubTailMs = nil, nil
	for _, ops := range w.split(subWindows) {
		lat := make([]float64, len(ops))
		for j, i := range ops {
			lat[j] = w.lat[i]
		}
		sort.Float64s(lat)
		res.SubP50Ms = append(res.SubP50Ms, quantile(lat, 50))
		res.SubTailMs = append(res.SubTailMs, quantile(lat, tailP))
	}
	res.Samples, res.SubWindows, res.TailPercentile = len(w.lat), subWindows, tailP
	res.BeyondTail, res.RSSSamples = beyond(len(w.lat), tailP), len(w.rss)
	res.set("latency_p50_ms", median(w.lat))
	res.set("latency_tail_ms", pct(w.lat, tailP))
	res.set("goodput_ops", goodput)
	res.set("setup_s", setupS)
	res.set("mem_rss_mb", median(w.rss))
	res.set("energy_savings_pct", savingsPct)
	res.set("worst_slowdown_pct", slowdownPct)
}

// layerCommon fills the per-layer metrics every traced workload reports:
// the generator's own numbers, the runtime counters of the untraced
// reference window, and the tracing overhead against it.
func layerCommon(res *Result, tr *Tracer, ref, traced window, sent int, gapP99 float64) {
	res.set("loadgen.sent", float64(sent))
	res.set("loadgen.gap_p99_ms", gapP99)
	res.set("runtime.alloc_mb_per_op", ref.rt.allocMBPerOp)
	res.set("runtime.gc_cycles_per_s", ref.rt.gcPerS)
	res.set("runtime.gc_cpu_frac", ref.rt.gcCPUFrac)
	refP50, trP50 := median(ref.lat), median(traced.lat)
	if refP50 > 0 {
		res.set("trace.overhead_pct", 100*(trP50-refP50)/refP50)
	}
	res.set("trace.spans", float64(len(tr.Spans())))
	res.set("trace.op_ms_p50", trP50)
}

// gcNow keeps one workload's garbage from being collected inside the next
// window's first ops.
func gcNow() { runtime.GC() }
