package coscale

import (
	"math"
	"testing"

	"coscale/internal/core"
	"coscale/internal/experiments"
	"coscale/internal/policy"
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

// TestDecideZeroAllocSteadyState is the alloc-budget gate for the §3.1 search
// (DESIGN.md §7): after the first call sizes the controller's scratch —
// evaluators, search state, marginal lists — CoScale.Decide must not allocate.
// The paper's <5 µs search cost depends on the decision loop staying cheap;
// zero steady-state allocations is what this suite enforces going forward.
func TestDecideZeroAllocSteadyState(t *testing.T) {
	for _, n := range []int{16, 64} {
		cfg, obs := experiments.SearchBenchObs(n)
		cs := must(core.New(cfg))
		cs.Decide(obs) // warm-up sizes every scratch buffer
		avg := testing.AllocsPerRun(100, func() { cs.Decide(obs) })
		if avg != 0 {
			t.Errorf("%d cores: Decide allocates %.1f times per call in steady state, want 0", n, avg)
		}
	}
}

// TestComparisonPoliciesZeroAllocSteadyState extends the gate to the five
// §3.2 comparison policies (and the out-of-phase Semi variant): once the
// first epoch has sized each policy's evaluator and sweep scratch, Decide
// followed by Observe must not allocate.
func TestComparisonPoliciesZeroAllocSteadyState(t *testing.T) {
	cfg, obs := experiments.SearchBenchObs(16)
	for _, name := range []experiments.PolicyName{experiments.MemScaleName, experiments.CPUOnlyName,
		experiments.UncoordName, experiments.SemiName, experiments.SemiOoPName, experiments.OfflineName} {
		p := must(experiments.NewPolicy(name, cfg))
		epoch := func() {
			p.Decide(obs)
			p.Observe(obs)
		}
		epoch()
		epoch() // the out-of-phase variant alternates searches
		if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
			t.Errorf("%s: an epoch allocates %.1f times in steady state, want 0", name, avg)
		}
	}
}

// TestDecideDeterministicUnderReuse requires scratch-buffer reuse to be
// invisible in the output: deciding twice on one controller (warm buffers)
// must produce bit-identical decisions to a freshly constructed controller
// seeing the same observation.
func TestDecideDeterministicUnderReuse(t *testing.T) {
	cfg, obs := experiments.SearchBenchObs(16)

	reused := must(core.New(cfg))
	first := reused.Decide(obs).Clone() // Decide's result aliases controller scratch
	second := reused.Decide(obs).Clone()

	fresh := must(core.New(cfg)).Decide(obs).Clone()

	check := func(name string, d policy.Decision) {
		t.Helper()
		if d.MemStep != first.MemStep {
			t.Errorf("%s: MemStep %d, want %d", name, d.MemStep, first.MemStep)
		}
		if len(d.CoreSteps) != len(first.CoreSteps) {
			t.Fatalf("%s: %d core steps, want %d", name, len(d.CoreSteps), len(first.CoreSteps))
		}
		for i := range d.CoreSteps {
			if d.CoreSteps[i] != first.CoreSteps[i] {
				t.Errorf("%s: core %d step %d, want %d", name, i, d.CoreSteps[i], first.CoreSteps[i])
			}
		}
	}
	check("second decide on reused controller", second)
	check("fresh controller", fresh)
}

// TestEvaluatorResetMatchesFresh pins the evaluator-recycling contract: a
// Reset evaluator must predict bit-identically to a freshly constructed one.
func TestEvaluatorResetMatchesFresh(t *testing.T) {
	cfg, obs := experiments.SearchBenchObs(16)
	steps := policy.ZeroSteps(cfg.NCores)
	for i := range steps {
		steps[i] = i % 3
	}

	recycled := policy.NewEvaluator(cfg, obs)
	recycled.Evaluate(steps, 2) // dirty the scratch at another operating point
	recycled.Reset(cfg, obs)
	got := recycled.Evaluate(steps, 1)

	want := policy.NewEvaluator(cfg, obs).Evaluate(steps, 1)

	if math.Float64bits(got.SER) != math.Float64bits(want.SER) {
		t.Errorf("SER = %v, want %v", got.SER, want.SER)
	}
	if math.Float64bits(got.MaxSlow) != math.Float64bits(want.MaxSlow) {
		t.Errorf("MaxSlow = %v, want %v", got.MaxSlow, want.MaxSlow)
	}
	if math.Float64bits(got.Power.Total) != math.Float64bits(want.Power.Total) {
		t.Errorf("Power.Total = %v, want %v", got.Power.Total, want.Power.Total)
	}
	for i := range want.TPI {
		if math.Float64bits(got.TPI[i]) != math.Float64bits(want.TPI[i]) {
			t.Errorf("TPI[%d] = %v, want %v", i, got.TPI[i], want.TPI[i])
		}
		if math.Float64bits(got.Slowdown[i]) != math.Float64bits(want.Slowdown[i]) {
			t.Errorf("Slowdown[%d] = %v, want %v", i, got.Slowdown[i], want.Slowdown[i])
		}
	}
}
