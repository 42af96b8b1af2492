package loadgen

import (
	"context"
	"slices"
	"time"

	"coscale/internal/core"
	"coscale/internal/experiments"
	"coscale/internal/policy"
)

const (
	controlCores  = 1024
	controlObs    = 16  // distinct observations the chain moves between
	controlStay   = 0.8 // probability the chain keeps its observation
	controlWarmup = 200 // untimed ops
	controlVerify = 64  // 1 in controlVerify decisions is re-evaluated
	// The p99 of a decision that fans out over both vCPUs records when the
	// host takes one away: it moved between 2.4 and 8.8 ms across runs of
	// the same code on a shared 2-vCPU machine, the p95 by a tenth.
	controlTailP = 95
)

// controlFixture is one 1024-core CoScale controller with default options
// and the profiling observations it decides over.
type controlFixture struct {
	cfg policy.Config
	obs []policy.Observation
	c   *core.CoScale

	ev    policy.Evaluator
	epoch policy.Observation // the epoch the last decision predicts
}

func newControlFixture(seed uint64) (*controlFixture, error) {
	f := &controlFixture{obs: make([]policy.Observation, controlObs)}
	for i := range f.obs {
		f.cfg, f.obs[i] = experiments.SearchBenchObsSeed(controlCores, seed+uint64(i))
	}
	c, err := core.New(f.cfg)
	if err != nil {
		return nil, err
	}
	f.c = c
	return f, nil
}

// predictEpoch builds the whole-epoch observation the engine would deliver
// after running profile obs under d: one epoch at the settings d chose,
// each core retiring the instructions its predicted TPI allows. Feeding it
// to Observe keeps the slack book honest — an epoch run slower than the
// bound spends slack, a faster one earns it — so the bound keeps binding.
func (f *controlFixture) predictEpoch(obs policy.Observation, d policy.Decision) {
	f.ev.Reset(f.cfg, obs)
	e := f.ev.Evaluate(d.CoreSteps, d.MemStep)
	ep := &f.epoch
	ep.Window = f.cfg.EpochLen.Seconds()
	ep.CoreSteps = append(ep.CoreSteps[:0], d.CoreSteps...)
	ep.MemStep = d.MemStep
	ep.Cores = append(ep.Cores[:0], obs.Cores...)
	for i := range ep.Cores {
		ep.Cores[i].Instructions = uint64(ep.Window / e.TPI[i])
		ep.Cores[i].IPS = 1 / e.TPI[i]
	}
	ep.MemRate, ep.MemLatency, ep.UtilBus, ep.BusyFrac = obs.MemRate, obs.MemLatency, obs.UtilBus, obs.BusyFrac
}

// sampledDecision is a decision kept for re-checking after the window,
// with the per-core slack it was decided under.
type sampledDecision struct {
	obs   int
	d     policy.Decision
	slack []float64
}

func runControl(ctx context.Context, cfg Config, res *Result, tr *Tracer) error {
	f, setupS, err := setupMedian(cfg.setups(), func() (*controlFixture, error) { return newControlFixture(cfg.Seed) }, func(f *controlFixture) { f.c.Close() })
	if err != nil {
		return err
	}
	defer f.c.Close()

	// An op is Observe of the previous decision's epoch followed by the
	// next Decide — the engine's call sequence. Between ops, untimed, the
	// previous decision's epoch is predicted and, for 1 in controlVerify
	// decisions and the last of each window, the decision is kept with the
	// slack it saw (the slack Decide read is unchanged until the next
	// Observe).
	chain := newStickyChain(cfg.Seed, controlObs, controlStay)
	var samples []sampledDecision
	var opTr *Tracer // the tracer of the window being run, nil untraced
	var decides, moves, coreEvals int64
	k, lastK, last, n := 0, 0, policy.Decision{}, 0
	sample := func() {
		slack := f.c.Slack().AvailableFor(f.obs[lastK].CoreThreads())
		samples = append(samples, sampledDecision{obs: lastK, d: last.Clone(), slack: slack})
	}
	prep := func(int) {
		if n > 0 {
			if n%controlVerify == 0 {
				sample()
			}
			f.predictEpoch(f.obs[lastK], last)
		}
		k = chain.next()
	}
	op := func(i int) error {
		root, s := opTr.NewID(), opTr.Now()
		if n > 0 {
			f.c.Observe(f.epoch)
			opTr.Span(0, root, int64(i), "core.observe", s)
		}
		d := opTr.Now()
		last, lastK = f.c.Decide(f.obs[k]), k
		opTr.Span(0, root, int64(i), "core.decide", d)
		opTr.Span(root, 0, int64(i), "loadgen.op", s)
		if opTr != nil {
			st := f.c.SearchStats()
			decides, moves, coreEvals = decides+1, moves+int64(st.Moves), coreEvals+int64(st.CoreEvals)
		}
		n++
		return ctx.Err()
	}
	for i := range controlWarmup {
		prep(i)
		if err := op(i); err != nil {
			return err
		}
	}
	samples = samples[:0]
	gcNow()
	if !cfg.Trace {
		w, err := closedLoop(cfg.Window, prep, op)
		if err != nil {
			return err
		}
		sample() // the window's last decision, so even a short window checks one
		res.Attempted += len(w.lat)
		sav, slow, err := checkDecisions(res, f, samples)
		if err != nil {
			return err
		}
		endToEnd(res, w, controlTailP, busyRate(w, 1), setupS, sav, slow)
		return nil
	}
	ref, err := closedLoop(cfg.Window/2, prep, op)
	if err != nil {
		return err
	}
	gcNow()
	opTr = tr
	traced, err := closedLoop(cfg.Window/2, prep, op)
	if err != nil {
		return err
	}
	sample()
	res.Attempted += len(ref.lat) + len(traced.lat)
	if _, _, err := checkDecisions(res, f, samples); err != nil {
		return err
	}
	st := analyze(tr.Spans())
	layerCommon(res, tr, ref, traced, len(traced.lat), gapP99(rootSpans(tr.Spans(), "loadgen.op")))
	res.set("trace.unattributed_pct", st.unattributedPct())
	coreSearch(res, st, decides, moves, coreEvals)
	return nil
}

// checkDecisions re-checks the sampled decisions after the window. Each
// must keep every core within the slowdown limit its slack allowed, by a
// fresh evaluator's prediction, and must equal the decision a fresh
// controller makes from the same observation and slack — so reused search
// state and the worker pool never change a decision.
//
// It then returns the quality metrics: the fresh controller's first
// decision on each of controlObs reference observations, the same on every
// seed, re-evaluated and checked the same way; their mean predicted energy
// savings (1 − SER) and mean worst predicted slowdown, in percent. Fixed
// inputs make them read the same bits on every run of one build.
func checkDecisions(res *Result, f *controlFixture, samples []sampledDecision) (savingsPct, slowdownPct float64, err error) {
	ref, err := core.New(f.cfg)
	if err != nil {
		return 0, 0, err
	}
	defer ref.Close()
	for i, s := range samples {
		obs := f.obs[s.obs]
		e := policy.NewEvaluator(f.cfg, obs).Evaluate(s.d.CoreSteps, s.d.MemStep)
		if !policy.WithinBound(e, f.cfg.Limits(s.slack)) {
			res.fail("sampled decision %d violates its slowdown limits (max slowdown %.4f)", i, e.MaxSlow)
		}
		ref.Reset()
		for c, t := range obs.CoreThreads() {
			ref.Slack().Thread(t).Record(0, -s.slack[c]) // credits exactly s.slack[c]
		}
		if d := ref.Decide(obs); d.MemStep != s.d.MemStep || !slices.Equal(d.CoreSteps, s.d.CoreSteps) {
			res.fail("sampled decision %d differs from a fresh controller's", i)
		}
	}
	var sav, slow []float64
	for i := range controlObs {
		_, obs := experiments.SearchBenchObsSeed(controlCores, uint64(i))
		ref.Reset()
		d := ref.Decide(obs)
		e := policy.NewEvaluator(f.cfg, obs).Evaluate(d.CoreSteps, d.MemStep)
		if !policy.WithinBound(e, f.cfg.Limits(ref.Slack().AvailableFor(obs.CoreThreads()))) {
			res.fail("reference decision %d violates its slowdown limits (max slowdown %.4f)", i, e.MaxSlow)
		}
		sav = append(sav, 100*(1-e.SER))
		slow = append(slow, 100*(e.MaxSlow-1))
	}
	return mean(sav), mean(slow), nil
}

// gapP99 is a closed-loop generator's lag: the p99 gap between one op's end
// and the next op's start, in ms.
func gapP99(ops []Span) float64 {
	var gaps []float64
	for i := 1; i < len(ops); i++ {
		gaps = append(gaps, float64(ops[i].Start-ops[i-1].End)/float64(time.Millisecond))
	}
	return pct(gaps, 99)
}
