package policy

import (
	"math"
	"slices"
	"testing"
	"time"

	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
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

func testCfg(n int) Config {
	return Config{
		NCores:     n,
		CoreLadder: freq.DefaultCoreLadder(),
		MemLadder:  freq.DefaultMemLadder(),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(n),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
	}
}

// synthObs builds a self-consistent observation for n identical cores.
func synthObs(cfg Config, stats perf.CoreStats) Observation {
	sv := perf.NewSolver(cfg.Mem)
	all := make([]perf.CoreStats, cfg.NCores)
	for i := range all {
		all[i] = stats
	}
	res := sv.SolveUniform(all, cfg.CoreLadder.MaxHz(), cfg.MemLadder.MaxHz())
	obs := Observation{
		Window:     300e-6,
		CoreSteps:  ZeroSteps(cfg.NCores),
		MemStep:    0,
		Cores:      make([]CoreObs, cfg.NCores),
		MemRate:    res.MemRate,
		MemLatency: res.Mem.Latency,
		UtilBus:    res.Mem.UtilBus,
		BusyFrac:   math.Min(1, res.Mem.UtilBank*8),
	}
	for i := range obs.Cores {
		obs.Cores[i] = CoreObs{
			Instructions: uint64(300e-6 / res.TPI[i]),
			Stats:        stats,
			L2PerInstr:   stats.Alpha,
			Mix:          trace.InstrMix{ALU: 0.3, FPU: 0.2, Branch: 0.1, LoadStore: 0.3},
			IPS:          1 / res.TPI[i],
		}
	}
	return obs
}

func computeStats() perf.CoreStats {
	return perf.CoreStats{CPIBase: 1.1, Alpha: 0.003, StallL2: 7.5e-9, Beta: 0.0003,
		MemPerInstr: 0.0005, MLP: 1}
}

func memoryStats() perf.CoreStats {
	return perf.CoreStats{CPIBase: 1.4, Alpha: 0.03, StallL2: 7.5e-9, Beta: 0.017,
		MemPerInstr: 0.022, MLP: 1}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg(16).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCfg(16)
	bad.NCores = 0
	if bad.Validate() == nil {
		t.Error("zero cores accepted")
	}
	bad = testCfg(16)
	bad.CoreLadder = nil
	if bad.Validate() == nil {
		t.Error("nil ladder accepted")
	}
	bad = testCfg(16)
	bad.Gamma = -1
	if bad.Validate() == nil {
		t.Error("negative gamma accepted")
	}
	bad = testCfg(16)
	bad.EpochLen = 0
	if bad.Validate() == nil {
		t.Error("zero epoch accepted")
	}
}

func TestEvaluatorBaseline(t *testing.T) {
	cfg := testCfg(4)
	ev := NewEvaluator(cfg, synthObs(cfg, memoryStats()))
	b := ev.Baseline()
	if b.SER != 1 || b.MaxSlow != 1 {
		t.Errorf("baseline SER=%g MaxSlow=%g, want 1,1", b.SER, b.MaxSlow)
	}
	for _, s := range b.Slowdown {
		if s != 1 {
			t.Errorf("baseline slowdown %g, want 1", s)
		}
	}
}

func TestEvaluatorSlowdownMonotonic(t *testing.T) {
	cfg := testCfg(4)
	ev := NewEvaluator(cfg, synthObs(cfg, memoryStats()))
	prev := 0.0
	for s := 0; s < cfg.CoreLadder.Steps(); s++ {
		steps := []int{s, s, s, s}
		e := ev.Evaluate(steps, 0)
		if e.MaxSlow < prev {
			t.Errorf("slowdown decreased at step %d", s)
		}
		prev = e.MaxSlow
	}
}

func TestEvaluatorPowerDropsWithFrequency(t *testing.T) {
	cfg := testCfg(4)
	ev := NewEvaluator(cfg, synthObs(cfg, computeStats()))
	high := ev.Evaluate(ZeroSteps(4), 0)
	low := ev.Evaluate([]int{9, 9, 9, 9}, 9)
	if low.Power.Total >= high.Power.Total {
		t.Errorf("power did not drop: %g >= %g", low.Power.Total, high.Power.Total)
	}
}

func TestEvaluatorSERBalance(t *testing.T) {
	// For a compute-bound workload, scaling memory to minimum should give
	// SER < 1 (saves energy at ~zero slowdown), while scaling cores to
	// minimum should give SER well above the memory-only option.
	cfg := testCfg(4)
	ev := NewEvaluator(cfg, synthObs(cfg, computeStats()))
	memOnly := ev.Evaluate(ZeroSteps(4), 9)
	coreOnly := ev.Evaluate([]int{9, 9, 9, 9}, 0)
	if memOnly.SER >= 1 {
		t.Errorf("memory-only SER %g should be < 1 for compute workload", memOnly.SER)
	}
	if memOnly.MaxSlow > 1.04 {
		t.Errorf("memory-only slowdown %g should be tiny for compute workload", memOnly.MaxSlow)
	}
	if coreOnly.MaxSlow < 1.5 {
		t.Errorf("core-to-min slowdown %g should be large for compute workload", coreOnly.MaxSlow)
	}
}

func TestMaxSlowdowns(t *testing.T) {
	limits := MaxSlowdownsInto(nil, []float64{0, 2.5e-3, -2.5e-3, 10e-3}, 5e-3, 0.10)
	if math.Abs(limits[0]-1.10) > 1e-9 {
		t.Errorf("zero slack limit = %g, want 1.10", limits[0])
	}
	// Positive slack: can slow down more. 5ms*1.1/(5-2.5)ms = 2.2.
	if math.Abs(limits[1]-2.2) > 1e-9 {
		t.Errorf("positive slack limit = %g, want 2.2", limits[1])
	}
	// Negative slack: must run faster than the bound; 5*1.1/7.5 = 0.733,
	// clamped to 1 (max frequency is the fastest we can go).
	if limits[2] != 1 {
		t.Errorf("negative slack limit = %g, want clamp to 1", limits[2])
	}
	// Slack >= epoch: unconstrained.
	if !math.IsInf(limits[3], 1) {
		t.Errorf("huge slack limit = %g, want +Inf", limits[3])
	}
}

func TestConfigLimitsAppliesReserve(t *testing.T) {
	cfg := testCfg(4)
	cfg.Reserve = 1e-3
	with := cfg.Limits([]float64{0})
	cfg.Reserve = 0
	without := cfg.Limits([]float64{0})
	if with[0] >= without[0] {
		t.Errorf("reserve did not tighten the limit: %g >= %g", with[0], without[0])
	}
}

func TestWithinBound(t *testing.T) {
	e := Eval{Slowdown: []float64{1.05, 1.10}}
	if !WithinBound(e, []float64{1.10, 1.10}) {
		t.Error("within-bound eval rejected")
	}
	if WithinBound(e, []float64{1.04, 1.10}) {
		t.Error("violating eval accepted")
	}
}

func TestDecisionClone(t *testing.T) {
	d := Decision{CoreSteps: []int{1, 2, 3}, MemStep: 4}
	c := d.Clone()
	c.CoreSteps[0] = 9
	if d.CoreSteps[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestMemScaleLeavesCoresAlone(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewMemScale(cfg))
	if p.Name() != "MemScale" {
		t.Errorf("Name() = %s", p.Name())
	}
	obs := synthObs(cfg, computeStats())
	d := p.Decide(obs)
	for i, s := range d.CoreSteps {
		if s != 0 {
			t.Errorf("MemScale moved core %d to step %d", i, s)
		}
	}
	if d.MemStep == 0 {
		t.Error("MemScale did not scale memory for a compute-bound workload")
	}
}

func TestMemScaleKeepsMemoryHighUnderTraffic(t *testing.T) {
	cfg := testCfg(16)
	p := must(NewMemScale(cfg))
	d := p.Decide(synthObs(cfg, memoryStats()))
	if d.MemStep > 3 {
		t.Errorf("MemScale scaled a memory-bound workload to step %d", d.MemStep)
	}
}

func TestCPUOnlyLeavesMemoryAlone(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewCPUOnly(cfg))
	if p.Name() != "CPUOnly" {
		t.Errorf("Name() = %s", p.Name())
	}
	obs := synthObs(cfg, memoryStats())
	d := p.Decide(obs)
	if d.MemStep != obs.MemStep {
		t.Error("CPUOnly changed the memory step")
	}
	moved := false
	for _, s := range d.CoreSteps {
		if s > 0 {
			moved = true
		}
	}
	if !moved {
		t.Error("CPUOnly did not scale any core for a memory-bound workload")
	}
}

func TestCPUOnlyRespectsBoundPrediction(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewCPUOnly(cfg))
	obs := synthObs(cfg, computeStats())
	d := p.Decide(obs)
	ev := NewEvaluator(cfg, obs)
	e := ev.Evaluate(d.CoreSteps, d.MemStep)
	if e.MaxSlow > 1.10+1e-6 {
		t.Errorf("CPUOnly predicted slowdown %g exceeds bound", e.MaxSlow)
	}
}

func TestUncoordinatedDoubleSpends(t *testing.T) {
	// Both managers consume a full γ against their own references, so the
	// joint predicted slowdown should exceed 1+γ for a balanced workload.
	cfg := testCfg(8)
	p := must(NewUncoordinated(cfg))
	if p.Name() != "Uncoordinated" {
		t.Errorf("Name() = %s", p.Name())
	}
	stats := perf.CoreStats{CPIBase: 1.3, Alpha: 0.008, StallL2: 7.5e-9, Beta: 0.002,
		MemPerInstr: 0.004, MLP: 1}
	obs := synthObs(cfg, stats)
	d := p.Decide(obs)
	ev := NewEvaluator(cfg, obs)
	e := ev.Evaluate(d.CoreSteps, d.MemStep)
	if e.MaxSlow <= 1.10 {
		t.Errorf("Uncoordinated joint slowdown %g should exceed the 1.10 bound", e.MaxSlow)
	}
	p.Observe(obs) // must be a no-op; just exercise it
}

func TestSemiCoordinatedSharedSlackHolds(t *testing.T) {
	cfg := testCfg(8)
	p := must(NewSemiCoordinated(cfg))
	stats := perf.CoreStats{CPIBase: 1.3, Alpha: 0.008, StallL2: 7.5e-9, Beta: 0.002,
		MemPerInstr: 0.004, MLP: 1}
	obs := synthObs(cfg, stats)
	// First decision may overshoot (that is the pathology)...
	d1 := p.Decide(obs)
	ev := NewEvaluator(cfg, obs)
	e1 := ev.Evaluate(d1.CoreSteps, d1.MemStep)
	// ...but after observing a slow epoch, the shared slack must force a
	// faster choice.
	slowEpoch := obs
	slowEpoch.Window = cfg.EpochLen.Seconds() * 1.25 // ran 25% slow
	for i := range slowEpoch.Cores {
		slowEpoch.Cores[i].Instructions = uint64(float64(slowEpoch.Cores[i].Instructions) * 16)
	}
	p.Observe(slowEpoch)
	d2 := p.Decide(obs)
	e2 := ev.Evaluate(d2.CoreSteps, d2.MemStep)
	if e2.MaxSlow >= e1.MaxSlow {
		t.Errorf("after overshoot, Semi should choose faster settings: %g >= %g", e2.MaxSlow, e1.MaxSlow)
	}
}

func TestSemiOutOfPhaseAlternates(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewSemiCoordinated(cfg))
	p.OutOfPhase = true
	if p.Name() != "Semi-coordinated-OoP" {
		t.Errorf("Name() = %s", p.Name())
	}
	obs := synthObs(cfg, computeStats())
	d1 := p.Decide(obs) // epoch 1: CPU manager only
	if d1.MemStep != obs.MemStep {
		t.Error("epoch 1 should not move memory")
	}
	d2 := p.Decide(obs) // epoch 2: memory manager only
	for i := range d2.CoreSteps {
		if d2.CoreSteps[i] != obs.CoreSteps[i] {
			t.Error("epoch 2 should not move cores")
		}
	}
}

func TestOfflineWantsOracle(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewOffline(cfg))
	if !p.WantsOracle() {
		t.Error("Offline must want oracle observations")
	}
	if p.Name() != "Offline" {
		t.Errorf("Name() = %s", p.Name())
	}
}

func TestOfflineBeatsOrMatchesSingleKnob(t *testing.T) {
	cfg := testCfg(8)
	stats := perf.CoreStats{CPIBase: 1.3, Alpha: 0.01, StallL2: 7.5e-9, Beta: 0.003,
		MemPerInstr: 0.006, MLP: 1}
	obs := synthObs(cfg, stats)
	ev := NewEvaluator(cfg, obs)

	off := must(NewOffline(cfg)).Decide(obs)
	offEval := ev.Evaluate(off.CoreSteps, off.MemStep)
	if offEval.MaxSlow > 1.10+1e-6 {
		t.Fatalf("Offline predicted slowdown %g violates bound", offEval.MaxSlow)
	}

	mem := must(NewMemScale(cfg)).Decide(obs)
	memEval := ev.Evaluate(mem.CoreSteps, mem.MemStep)
	cpu := must(NewCPUOnly(cfg)).Decide(obs)
	cpuEval := ev.Evaluate(cpu.CoreSteps, cpu.MemStep)

	if offEval.SER > memEval.SER+1e-9 || offEval.SER > cpuEval.SER+1e-9 {
		t.Errorf("Offline SER %.4f worse than MemScale %.4f or CPUOnly %.4f",
			offEval.SER, memEval.SER, cpuEval.SER)
	}
}

// epochObs is synthObs stretched to a whole 5 ms epoch at maximum
// frequencies: every core commits what it would in 5 ms at the all-max point.
func epochObs(cfg Config) Observation {
	obs := synthObs(cfg, computeStats())
	obs.Window = 5e-3
	for i := range obs.Cores {
		obs.Cores[i].Instructions = uint64(float64(obs.Cores[i].Instructions) * (5e-3 / 300e-6))
	}
	return obs
}

// TestSlackBookReserve: Observe credits each thread (1+γ) times its
// instructions at the all-max TPI and charges the wall time plus the
// reserve, so an epoch run at the all-max point nets about γ·E − reserve.
func TestSlackBookReserve(t *testing.T) {
	cfg := testCfg(2)
	cfg.Reserve = 1e-3
	obs := epochObs(cfg)
	b := NewSlackBook(cfg)
	b.Observe(obs)
	base := NewEvaluator(cfg, obs).Baseline().TPI
	for i, s := range b.AvailableFor([]int{0, 1}) {
		tMax := float64(obs.Cores[i].Instructions) * base[i]
		if tMax > 6e-3 || tMax < 3e-3 {
			t.Errorf("core %d all-max time = %g, want near the 5 ms it ran at the all-max point", i, tMax)
		}
		if want := tMax*(1+cfg.Gamma) - (obs.Window + cfg.Reserve); math.Float64bits(s) != math.Float64bits(want) {
			t.Errorf("slack[%d] = %g, want %g", i, s, want)
		}
		// Slack = 5ms*1.1 - (5ms + 1ms reserve) = -0.5ms.
		if math.Abs(s-(-0.5e-3)) > 1e-4 {
			t.Errorf("slack[%d] = %g, want about -5e-4", i, s)
		}
	}
}

func TestSlackBookFollowsThreads(t *testing.T) {
	// A thread's slack must travel with it across cores: record a deficit
	// for thread 7 on core 0, then read it back from core 1.
	cfg := testCfg(2)
	obs := epochObs(cfg)
	obs.Window = 7e-3 // both threads 40% slow
	obs.ThreadIDs = []int{7, 8}
	b := NewSlackBook(cfg)
	b.Observe(obs)
	moved := b.AvailableFor([]int{8, 7}) // threads swapped cores
	if moved[0] != moved[1] {
		t.Fatalf("symmetric history should give equal slack: %v", moved)
	}
	if moved[0] >= 0 {
		t.Errorf("deficit lost in migration: %g", moved[0])
	}
	// Limits read the same trackers through the observation's mapping.
	obs.ThreadIDs = []int{8, 7}
	if got, want := b.Limits(obs), cfg.Limits(moved); !slices.Equal(got, want) {
		t.Errorf("limits after migration = %v, want %v", got, want)
	}
	// A brand-new thread starts with zero slack.
	if got := b.AvailableFor([]int{99})[0]; got != 0 {
		t.Errorf("new thread slack = %g, want 0", got)
	}
}

func TestObservationCoreThreadsDefault(t *testing.T) {
	obs := Observation{Cores: make([]CoreObs, 3)}
	if got := obs.CoreThreads(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("identity mapping wrong: %v", got)
	}
	obs.ThreadIDs = []int{5, 4, 3}
	if got := obs.CoreThreads(); got[0] != 5 || got[2] != 3 {
		t.Errorf("explicit mapping ignored: %v", got)
	}
}
