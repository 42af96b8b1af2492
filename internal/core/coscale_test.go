package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/trace"
)

// must unwraps a constructor's (value, error) pair for test setup; a
// non-nil error is a broken fixture, reported by panicking (Go forbids
// f(t, g()) with a multi-valued g, so the helper cannot also take t).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func testCfg(n int) policy.Config {
	return policy.Config{
		NCores:     n,
		CoreLadder: freq.DefaultCoreLadder(),
		MemLadder:  freq.DefaultMemLadder(),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(n),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
	}
}

func synthObs(cfg policy.Config, perCore []perf.CoreStats) policy.Observation {
	sv := perf.NewSolver(cfg.Mem)
	hz := make([]float64, len(perCore))
	for i := range hz {
		hz[i] = cfg.CoreLadder.MaxHz()
	}
	res := sv.Solve(perCore, hz, cfg.MemLadder.MaxHz())
	obs := policy.Observation{
		Window:     300e-6,
		CoreSteps:  policy.ZeroSteps(len(perCore)),
		Cores:      make([]policy.CoreObs, len(perCore)),
		MemRate:    res.MemRate,
		MemLatency: res.Mem.Latency,
		UtilBus:    res.Mem.UtilBus,
		BusyFrac:   math.Min(1, res.Mem.UtilBank*8),
	}
	for i := range perCore {
		obs.Cores[i] = policy.CoreObs{
			Instructions: uint64(300e-6 / res.TPI[i]),
			Stats:        perCore[i],
			L2PerInstr:   perCore[i].Alpha,
			Mix:          trace.InstrMix{ALU: 0.3, FPU: 0.2, Branch: 0.1, LoadStore: 0.3},
			IPS:          1 / res.TPI[i],
		}
	}
	return obs
}

func uniform(n int, s perf.CoreStats) []perf.CoreStats {
	out := make([]perf.CoreStats, n)
	for i := range out {
		out[i] = s
	}
	return out
}

var (
	compute = perf.CoreStats{CPIBase: 1.1, Alpha: 0.003, StallL2: 7.5e-9, Beta: 0.0003,
		MemPerInstr: 0.0005, MLP: 1}
	memory = perf.CoreStats{CPIBase: 1.4, Alpha: 0.03, StallL2: 7.5e-9, Beta: 0.017,
		MemPerInstr: 0.022, MLP: 1}
)

func TestNewValidates(t *testing.T) {
	if _, err := New(policy.Config{}); err == nil {
		t.Error("New with invalid config returned no error")
	}
}

func TestName(t *testing.T) {
	cfg := testCfg(4)
	if got := must(New(cfg)).Name(); got != "CoScale" {
		t.Errorf("Name() = %s", got)
	}
	if got := must(NewWithOptions(cfg, Options{DisableGrouping: true})).Name(); got != "CoScale-NoGrouping" {
		t.Errorf("Name() = %s", got)
	}
	if got := must(NewWithOptions(cfg, Options{DisableMarginalCache: true})).Name(); got != "CoScale-NoCache" {
		t.Errorf("Name() = %s", got)
	}
}

func TestDecideRespectsPredictedBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stats perf.CoreStats
	}{{"compute", compute}, {"memory", memory}} {
		cfg := testCfg(8)
		cs := must(New(cfg))
		obs := synthObs(cfg, uniform(8, tc.stats))
		d := cs.Decide(obs)
		ev := policy.NewEvaluator(cfg, obs)
		e := ev.Evaluate(d.CoreSteps, d.MemStep)
		if e.MaxSlow > 1.10+1e-9 {
			t.Errorf("%s: predicted slowdown %.4f exceeds bound", tc.name, e.MaxSlow)
		}
		if e.SER >= 1 {
			t.Errorf("%s: decision SER %.4f does not save energy", tc.name, e.SER)
		}
	}
}

func TestDecidePicksTheRightKnob(t *testing.T) {
	cfg := testCfg(8)

	// Compute-bound: memory should be scaled deep, cores barely.
	d := must(New(cfg)).Decide(synthObs(cfg, uniform(8, compute)))
	if d.MemStep < 5 {
		t.Errorf("compute-bound: memory only scaled to step %d", d.MemStep)
	}

	// Memory-bound: memory should stay high, cores scale deep.
	d = must(New(cfg)).Decide(synthObs(cfg, uniform(8, memory)))
	if d.MemStep > 3 {
		t.Errorf("memory-bound: memory scaled to step %d, should stay high", d.MemStep)
	}
	sum := 0
	for _, s := range d.CoreSteps {
		sum += s
	}
	if sum < 8 {
		t.Errorf("memory-bound: cores barely scaled (steps %v)", d.CoreSteps)
	}
}

func TestHeterogeneousCoresGetDifferentSteps(t *testing.T) {
	// Half the cores compute-bound, half memory-bound: CoScale should
	// scale the memory-bound cores further down (their marginal
	// performance cost is lower).
	cfg := testCfg(8)
	perCore := append(uniform(4, compute), uniform(4, memory)...)
	d := must(New(cfg)).Decide(synthObs(cfg, perCore))
	avgCompute, avgMemory := 0.0, 0.0
	for i := 0; i < 4; i++ {
		avgCompute += float64(d.CoreSteps[i]) / 4
		avgMemory += float64(d.CoreSteps[i+4]) / 4
	}
	if avgMemory <= avgCompute {
		t.Errorf("memory-bound cores (avg step %.1f) should scale below compute-bound (%.1f): %v",
			avgMemory, avgCompute, d.CoreSteps)
	}
}

func TestGroupingEscapesLocalMinimum(t *testing.T) {
	// §3.1: without group moves the heuristic always lowers memory first
	// and can get stuck. With many identical cores, grouping should find
	// an equal-or-better SER.
	cfg := testCfg(16)
	obs := synthObs(cfg, uniform(16, perf.CoreStats{CPIBase: 1.25, Alpha: 0.008,
		StallL2: 7.5e-9, Beta: 0.0022, MemPerInstr: 0.004, MLP: 1}))
	ev := policy.NewEvaluator(cfg, obs)

	with := must(New(cfg)).Decide(obs)
	without := must(NewWithOptions(cfg, Options{DisableGrouping: true})).Decide(obs)
	serWith := ev.Evaluate(with.CoreSteps, with.MemStep).SER
	serWithout := ev.Evaluate(without.CoreSteps, without.MemStep).SER
	if serWith > serWithout+1e-9 {
		t.Errorf("grouping made things worse: %.5f > %.5f", serWith, serWithout)
	}
	t.Logf("SER with grouping %.5f, without %.5f", serWith, serWithout)
}

func TestMarginalCacheMatchesUncached(t *testing.T) {
	// The Figure 2 caching is an efficiency device; decisions with and
	// without it should produce very similar energy outcomes.
	cfg := testCfg(8)
	perCore := append(uniform(4, compute), uniform(4, memory)...)
	obs := synthObs(cfg, perCore)
	ev := policy.NewEvaluator(cfg, obs)
	cached := must(New(cfg)).Decide(obs)
	uncached := must(NewWithOptions(cfg, Options{DisableMarginalCache: true})).Decide(obs)
	a := ev.Evaluate(cached.CoreSteps, cached.MemStep).SER
	b := ev.Evaluate(uncached.CoreSteps, uncached.MemStep).SER
	if math.Abs(a-b) > 0.02 {
		t.Errorf("cached SER %.4f vs uncached %.4f differ too much", a, b)
	}
}

func TestNegativeSlackForcesMaxFrequency(t *testing.T) {
	cfg := testCfg(4)
	cs := must(New(cfg))
	obs := synthObs(cfg, uniform(4, compute))
	// Deliver epochs that ran way over bound so slack goes deeply negative.
	slow := obs
	slow.Window = cfg.EpochLen.Seconds() * 2
	cs.Observe(slow)
	cs.Observe(slow)
	d := cs.Decide(obs)
	for i, s := range d.CoreSteps {
		if s != 0 {
			t.Errorf("core %d at step %d despite negative slack", i, s)
		}
	}
	if d.MemStep != 0 {
		t.Errorf("memory at step %d despite negative slack", d.MemStep)
	}
}

func TestSlackAccumulationAllowsDeeperScaling(t *testing.T) {
	cfg := testCfg(4)
	cs := must(New(cfg))
	obs := synthObs(cfg, uniform(4, compute))
	d1 := cs.Decide(obs)
	// Several fast epochs bank slack...
	fast := obs
	fast.Window = cfg.EpochLen.Seconds() * 0.999
	for i := range fast.Cores {
		fast.Cores[i].Instructions = uint64(cfg.EpochLen.Seconds() / 3e-10)
	}
	for k := 0; k < 5; k++ {
		cs.Observe(fast)
	}
	d2 := cs.Decide(obs)
	sum := func(d policy.Decision) int {
		s := d.MemStep
		for _, c := range d.CoreSteps {
			s += c
		}
		return s
	}
	if sum(d2) < sum(d1) {
		t.Errorf("banked slack should allow at least as deep scaling: %v/%d vs %v/%d",
			d2.CoreSteps, d2.MemStep, d1.CoreSteps, d1.MemStep)
	}
}

func TestDecideDeterministic(t *testing.T) {
	cfg := testCfg(8)
	obs := synthObs(cfg, append(uniform(4, compute), uniform(4, memory)...))
	d1 := must(New(cfg)).Decide(obs)
	d2 := must(New(cfg)).Decide(obs)
	if d1.MemStep != d2.MemStep {
		t.Error("decisions differ across identical controllers")
	}
	for i := range d1.CoreSteps {
		if d1.CoreSteps[i] != d2.CoreSteps[i] {
			t.Error("core steps differ across identical controllers")
		}
	}
}

func TestSearchHandlesSingleCore(t *testing.T) {
	cfg := testCfg(1)
	d := must(New(cfg)).Decide(synthObs(cfg, uniform(1, compute)))
	if len(d.CoreSteps) != 1 {
		t.Fatalf("decision has %d cores", len(d.CoreSteps))
	}
}

func TestSearchHandlesTinyLadders(t *testing.T) {
	cfg := testCfg(4)
	cl, err := freq.CoreLadderN(2)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := freq.MemLadderN(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CoreLadder, cfg.MemLadder = cl, ml
	d := must(New(cfg)).Decide(synthObs(cfg, uniform(4, compute)))
	if d.MemStep < 0 || d.MemStep > 1 {
		t.Errorf("MemStep %d out of ladder", d.MemStep)
	}
}

// TestDecideStartsNoGoroutines: the search runs entirely on the caller's
// goroutine. A 1024-core controller deciding and observing several epochs
// on a multi-CPU scheduler must leave the goroutine count unchanged.
func TestDecideStartsNoGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	before := runtime.NumGoroutine()
	cfg := propCfg(1024, 10, 8)
	cs := must(New(cfg))
	rng := trace.NewRand(99)
	for k := 0; k < 4; k++ {
		obs := randObs(rng, cfg.NCores)
		cs.Decide(obs)
		cs.Observe(obs)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d -> %d across Decide/Observe, want unchanged", before, after)
	}
	runtime.KeepAlive(cs)
}
