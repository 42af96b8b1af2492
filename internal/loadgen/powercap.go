package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"coscale/internal/cache"
	"coscale/internal/core"
	"coscale/internal/experiments"
	"coscale/internal/fastcap"
	"coscale/internal/fault"
	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

const (
	capNodes = 8
	capCycle = 48 // epochs of the precomputed observation and budget cycle
	capTailP = 90
)

// capMixes is the node workload rotation of the fastcap study
// (experiments.FastCap): one mix per paper class, twice over.
var capMixes = []string{"MEM1", "MID1", "ILP1", "MIX1", "MEM2", "MID2", "ILP2", "MIX2"}

// capBudget is the cap-event trace as a fraction of provisioned power at
// cycle epoch e: steady at 100% for the first third, cut to 80%, with a
// dip to 60% for a sixth of the cycle starting at two thirds.
func capBudget(e int) float64 {
	switch third := capCycle / 3; {
	case e < third:
		return 1.0
	case e >= 2*third && e < 2*third+capCycle/6:
		return 0.6
	}
	return 0.8
}

// capFixture is the fleet under test: eight 16-core nodes on one shared
// platform-table cache, a fair rebalancer over them, the precomputed
// observation cycle and the provisioned (all-max) fleet power.
type capFixture struct {
	cfg         policy.Config
	tables      *policy.TableCache
	obs         [capCycle][]policy.Observation
	provisioned float64
	reb         *fastcap.Rebalancer
}

func newCapFixture() (*capFixture, error) {
	f := &capFixture{tables: &policy.TableCache{}}
	mixes := make([]workload.Mix, capNodes)
	start, rate := make([]float64, capNodes), make([]float64, capNodes)
	for n := range mixes {
		m, err := workload.Get(capMixes[n%len(capMixes)])
		if err != nil {
			return nil, err
		}
		mixes[n] = m
		// The study's phase trajectories, so the fleet replays its inputs.
		start[n] = unit(fault.Mix64(experiments.FastCapSeed ^ uint64(n)<<1))
		rate[n] = 0.02 + 0.04*unit(fault.Mix64(experiments.FastCapSeed^uint64(n)<<1^1))
	}
	nc := mixes[0].Cores()
	f.cfg = policy.Config{
		NCores:     nc,
		CoreLadder: freq.DefaultCoreLadder(),
		MemLadder:  freq.DefaultMemLadder(),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(nc),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
		Tables:     f.tables,
	}
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	sv := perf.NewSolver(f.cfg.Mem)
	for e := range f.obs {
		f.obs[e] = make([]policy.Observation, capNodes)
		for n := range mixes {
			o, err := capObs(f.cfg, mixes[n], llc, sv, math.Mod(start[n]+rate[n]*float64(e), 1))
			if err != nil {
				return nil, err
			}
			f.obs[e][n] = o
		}
	}
	for n := range mixes {
		f.provisioned += policy.NewEvaluator(f.cfg, f.obs[0][n]).Baseline().Power.Total
	}
	f.reb = fastcap.NewRebalancer(fastcap.Fair)
	for n := range mixes {
		if err := f.reb.AddNode(nodeID(n), f.cfg); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func nodeID(n int) string { return fmt.Sprintf("node-%02d", n) }

func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// capObs synthesizes one node's profiling observation at phase fraction
// frac: each core samples its application's profile, the shared LLC splits
// capacity by access weight, and the queueing solver at maximum frequencies
// supplies the counters a real profiling epoch would deliver.
func capObs(cfg policy.Config, mix workload.Mix, llc *cache.ShareModel, sv *perf.Solver, frac float64) (policy.Observation, error) {
	n := cfg.NCores
	profiles := make([]*trace.AppProfile, n)
	weights := make([]float64, n)
	for i := range profiles {
		p, err := mix.AppForCore(i)
		if err != nil {
			return policy.Observation{}, err
		}
		profiles[i] = p
		weights[i] = p.At(frac).L2APKI
	}
	shares := llc.Shares(weights)
	stats := make([]perf.CoreStats, n)
	hz := make([]float64, n)
	for i, p := range profiles {
		s := p.At(frac)
		mpki := p.MPKIAt(frac, shares[i])
		stats[i] = perf.CoreStats{
			CPIBase:     s.CPIBase,
			Alpha:       s.L2APKI / 1000,
			StallL2:     cache.DefaultHitTime,
			Beta:        mpki / 1000,
			MemPerInstr: (mpki + mpki*s.DirtyFrac) / 1000,
			MLP:         s.MLP,
		}
		hz[i] = cfg.CoreLadder.MaxHz()
	}
	res := sv.Solve(stats, hz, cfg.MemLadder.MaxHz())
	obs := policy.Observation{
		Window:     cfg.EpochLen.Seconds(),
		CoreSteps:  policy.ZeroSteps(n),
		Cores:      make([]policy.CoreObs, n),
		MemRate:    res.MemRate,
		MemLatency: res.Mem.Latency,
		UtilBus:    res.Mem.UtilBus,
		BusyFrac:   math.Min(1, res.Mem.UtilBank*8),
	}
	for i, p := range profiles {
		obs.Cores[i] = policy.CoreObs{
			Instructions: uint64(obs.Window / res.TPI[i]),
			Stats:        stats[i],
			L2PerInstr:   stats[i].Alpha,
			Mix:          p.At(frac).Mix,
			IPS:          1 / res.TPI[i],
		}
	}
	return obs, nil
}

// capEpoch is one rebalancing epoch's outcome, kept for the checks.
type capEpoch struct {
	idx    int // cycle epoch
	budget float64
	nodes  []fastcap.NodeEpoch
}

func runPowerCap(ctx context.Context, cfg Config, res *Result, tr *Tracer) error {
	f, setupS, err := setupMedian(cfg.setups(), newCapFixture, func(*capFixture) {})
	if err != nil {
		return err
	}
	offset := int(cfg.Seed % capCycle)
	var log []capEpoch
	var eps []fastcap.NodeEpoch
	epoch := func(i int) error {
		idx := (offset + i) % capCycle
		budget := f.provisioned * capBudget(idx)
		var err error
		eps, err = f.reb.Epoch(budget, f.obs[idx], eps[:0])
		if err != nil && !errors.Is(err, fastcap.ErrBudgetInfeasible) {
			return err
		}
		log = append(log, capEpoch{idx: idx, budget: budget, nodes: append([]fastcap.NodeEpoch(nil), eps...)})
		return ctx.Err()
	}
	// Warm-up: one full cycle, kept as the reference the traced replica is
	// compared with and as the input of the quality metrics. An epoch's
	// outcome depends on its cycle epoch alone, not on the epochs before it
	// (the stateless traced replica matches the rebalancer bit for bit), so
	// the warm-up cycle stands for every cycle of the window.
	for i := range capCycle {
		if err := epoch(i); err != nil {
			return err
		}
	}
	var cycle [capCycle][]fastcap.NodeEpoch
	for _, e := range log {
		cycle[e.idx] = e.nodes
	}
	log = log[:0]
	gcNow()
	if !cfg.Trace {
		w, err := closedLoop(cfg.Window, nil, epoch)
		if err != nil {
			return err
		}
		checkCap(res, log)
		sav, slow := capQuality(f, &cycle)
		endToEnd(res, w, capTailP, busyRate(w, 1), setupS, sav, slow)
		return nil
	}
	r0 := f.reb.Rebalances()
	ref, err := closedLoop(cfg.Window/2, nil, epoch)
	if err != nil {
		return err
	}
	res.set("fastcap.rebalances", float64(f.reb.Rebalances()-r0))
	checkCap(res, log)

	rep, err := newCapReplica(f.cfg)
	if err != nil {
		return err
	}
	points, clamped := 0, 0
	gcNow()
	traced, err := closedLoop(cfg.Window/2, nil, func(i int) error {
		idx := (offset + i) % capCycle
		var err error
		eps, err = rep.epoch(tr, int64(i), f.provisioned*capBudget(idx), f.obs[idx], eps[:0])
		if err != nil && !errors.Is(err, fastcap.ErrBudgetInfeasible) {
			return err
		}
		res.Attempted++
		if !sameNodeEpochs(eps, cycle[idx]) {
			res.fail("traced epoch %d (cycle %d) differs from the rebalancer's", i, idx)
		}
		for n := range rep.fronts {
			points += rep.fronts[n].Len()
			if eps[n].Clamped {
				clamped++
			}
		}
		return ctx.Err()
	})
	if err != nil {
		return err
	}
	us, ms := time.Microsecond, time.Millisecond
	st := analyze(tr.Spans())
	layerCommon(res, tr, ref, traced, len(traced.lat), gapP99(rootSpans(tr.Spans(), "loadgen.epoch")))
	res.set("trace.unattributed_pct", st.unattributedPct())
	res.set("core.powercap_decide_us_p50", st.p("core.powercap_decide", 50, us))
	res.set("core.powercap_decide_us_p90", st.p("core.powercap_decide", 90, us))
	res.set("fastcap.build_ms_p50", st.p("fastcap.build", 50, ms))
	res.set("fastcap.allocate_us_p50", st.p("fastcap.allocate", 50, us))
	res.set("policy.evaluate_us_p50", st.p("policy.evaluate", 50, us))
	if n := len(traced.lat) * capNodes; n > 0 {
		res.set("fastcap.frontier_points_mean", float64(points)/float64(n))
	}
	res.set("fastcap.clamped", float64(clamped))
	builds, hits := f.tables.Stats()
	res.set("policy.tables_builds", float64(builds))
	res.set("policy.tables_hits", float64(hits))
	return nil
}

// checkCap verifies budget conservation on every epoch — the assignments
// never sum above the global budget — and, over the first cycle, that no
// node exceeded its assignment without being clamped.
func checkCap(res *Result, log []capEpoch) {
	res.Attempted += len(log)
	for i, e := range log {
		sum := 0.0
		for _, n := range e.nodes {
			sum += n.Assigned
		}
		if sum > e.budget*(1+1e-12) {
			res.fail("epoch %d assigns %.6f W over a %.6f W budget", i, sum, e.budget)
		}
		if i >= capCycle {
			continue
		}
		for _, n := range e.nodes {
			if n.Power > n.Assigned && !n.Clamped {
				res.fail("epoch %d: %s draws %.6f W over its %.6f W assignment unclamped", i, n.ID, n.Power, n.Assigned)
			}
		}
	}
}

// capQuality returns a cycle's mean fleet energy savings against
// provisioned power and mean worst-node slowdown, in percent, summed in
// cycle order so that every seed and window length reads the same bits.
func capQuality(f *capFixture, cycle *[capCycle][]fastcap.NodeEpoch) (savingsPct, slowdownPct float64) {
	var sav, slow []float64
	for _, nodes := range cycle {
		power, worst := 0.0, 0.0
		for _, n := range nodes {
			power += n.Power
			worst = math.Max(worst, n.MaxSlow)
		}
		sav = append(sav, 100*(1-power/f.provisioned))
		slow = append(slow, 100*(worst-1))
	}
	return mean(sav), mean(slow)
}

func sameNodeEpochs(a, b []fastcap.NodeEpoch) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Clamped != b[i].Clamped || bits(a[i].Assigned) != bits(b[i].Assigned) ||
			bits(a[i].Power) != bits(b[i].Power) || bits(a[i].MaxSlow) != bits(b[i].MaxSlow) {
			return false
		}
	}
	return true
}

// capReplica runs Rebalancer.Epoch's steps through the same public calls —
// Builder.Build per node, Allocator.Allocate, PowerCap.SetCap and
// DecideCapped per node, Evaluator.EvaluateInto per node — with a span
// around each, so a traced epoch splits by layer. Its outcomes must match
// the rebalancer's bit for bit.
type capReplica struct {
	cfg     policy.Config
	b       fastcap.Builder
	alloc   fastcap.Allocator
	fronts  []fastcap.Frontier
	caps    []*core.PowerCap
	evs     []policy.Evaluator
	anodes  []fastcap.Node
	assigns []fastcap.Assignment
	eval    policy.Eval
}

func newCapReplica(cfg policy.Config) (*capReplica, error) {
	r := &capReplica{cfg: cfg, alloc: fastcap.Allocator{Strategy: fastcap.Fair},
		fronts: make([]fastcap.Frontier, capNodes), evs: make([]policy.Evaluator, capNodes)}
	for n := range capNodes {
		pc, err := core.NewPowerCap(cfg, math.MaxFloat64)
		if err != nil {
			return nil, err
		}
		r.caps = append(r.caps, pc)
		r.evs[n].UseTables = true
	}
	return r, nil
}

func (r *capReplica) epoch(tr *Tracer, req int64, budget float64, obs []policy.Observation, out []fastcap.NodeEpoch) ([]fastcap.NodeEpoch, error) {
	root, t0 := tr.NewID(), tr.Now()
	defer func() { tr.Span(root, 0, req, "loadgen.epoch", t0) }()
	r.anodes = r.anodes[:0]
	for n := range r.fronts {
		s := tr.Now()
		err := r.b.Build(&r.fronts[n], r.cfg, obs[n])
		tr.Span(0, root, req, "fastcap.build", s)
		if err != nil {
			return out, err
		}
		r.anodes = append(r.anodes, fastcap.Node{ID: nodeID(n), F: &r.fronts[n]})
	}
	s := tr.Now()
	var err error
	r.assigns, err = r.alloc.Allocate(budget, r.anodes, r.assigns[:0])
	tr.Span(0, root, req, "fastcap.allocate", s)
	if err != nil && !errors.Is(err, fastcap.ErrBudgetInfeasible) {
		return out, err
	}
	for n := range r.fronts {
		clamped := err != nil
		s := tr.Now()
		if serr := r.caps[n].SetCap(r.assigns[n].Watts); serr != nil {
			return out, serr
		}
		d, derr := r.caps[n].DecideCapped(obs[n])
		tr.Span(0, root, req, "core.powercap_decide", s)
		if derr != nil {
			if !errors.Is(derr, core.ErrCapInfeasible) {
				return out, derr
			}
			clamped = true
		}
		s = tr.Now()
		r.evs[n].Reset(r.cfg, obs[n])
		r.evs[n].EvaluateInto(&r.eval, d.CoreSteps, d.MemStep)
		tr.Span(0, root, req, "policy.evaluate", s)
		out = append(out, fastcap.NodeEpoch{ID: nodeID(n), Assigned: r.assigns[n].Watts,
			Power: r.eval.Power.Total, MaxSlow: r.eval.MaxSlow, Clamped: clamped})
	}
	return out, err
}
