package sim

import (
	"testing"

	"coscale/internal/core"
	"coscale/internal/policy"
	"coscale/internal/workload"
)

// stubPolicy hands out its decisions in turn, one per Decide.
type stubPolicy struct {
	ds []policy.Decision
	k  int
}

func (p *stubPolicy) Name() string { return "Stub" }
func (p *stubPolicy) Decide(policy.Observation) policy.Decision {
	d := p.ds[p.k%len(p.ds)]
	p.k++
	return d
}
func (p *stubPolicy) Observe(policy.Observation) {}

// reuseRig steps an engine one epoch at a time and reports the solves and
// true-state samplings each epoch cost.
type reuseRig struct {
	t     *testing.T
	eng   *Engine
	epoch int
}

// newReuseRig runs MID1 at a budget no test approaches, so every thread
// stays in its first phase unless the test moves it.
func newReuseRig(t *testing.T, migrate int, ds ...policy.Decision) *reuseRig {
	t.Helper()
	cfg := Config{Mix: workload.MustGet("MID1"), InstrBudget: 1 << 50, MigrateEvery: migrate}
	cfg.Policy = &stubPolicy{ds: ds}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &reuseRig{t: t, eng: eng}
}

// step runs one epoch and checks it cost exactly solves and samplings.
func (r *reuseRig) step(solves, samplings int64) {
	r.t.Helper()
	s0, m0 := r.eng.Solves(), r.eng.Samplings()
	r.eng.step(r.epoch, false)
	if ds, dm := r.eng.Solves()-s0, r.eng.Samplings()-m0; ds != solves || dm != samplings {
		r.t.Errorf("epoch %d: %d solves and %d samplings, want %d and %d", r.epoch, ds, dm, solves, samplings)
	}
	r.epoch++
}

// uniform is the decision putting every MID1 core at core step s.
func uniform(s, mem int) policy.Decision {
	cs := make([]int, workload.MustGet("MID1").Cores())
	for i := range cs {
		cs[i] = s
	}
	return policy.Decision{CoreSteps: cs, MemStep: mem}
}

// TestEngineReusesUnchangedGroundTruth pins the engine's ground-truth reuse
// (DESIGN.md §7) by exact counts: a solve runs only when the true state, a
// core step or the memory step changed, and the true state is recomputed
// only when a thread moved or left its phase, or after Reset.
func TestEngineReusesUnchangedGroundTruth(t *testing.T) {
	t.Run("steady", func(t *testing.T) {
		// Epoch 0 samples once and solves at the initial and the decided
		// settings; after that nothing changes.
		r := newReuseRig(t, 0, uniform(2, 1))
		r.step(2, 1)
		for i := 0; i < 5; i++ {
			r.step(0, 0)
		}
	})
	for _, alt := range []struct {
		name string
		ds   []policy.Decision
	}{
		{"alternate-core", []policy.Decision{uniform(2, 1), uniform(3, 1)}},
		{"alternate-mem", []policy.Decision{uniform(2, 1), uniform(2, 2)}},
	} {
		t.Run(alt.name, func(t *testing.T) {
			// The profile window runs at the settings the last epoch ended
			// at; only the new decision's first sub-interval solves.
			r := newReuseRig(t, 0, alt.ds...)
			r.step(2, 1)
			for i := 0; i < 5; i++ {
				r.step(1, 0)
			}
		})
	}
	t.Run("phase", func(t *testing.T) {
		r := newReuseRig(t, 0, uniform(2, 1))
		r.step(2, 1)
		r.step(0, 0)
		th := -1
		for i, p := range r.eng.profiles {
			if len(p.Phases) > 1 {
				th = i
				break
			}
		}
		if th < 0 {
			t.Fatal("MID1 has no multi-phase application")
		}
		// Move one thread to its second phase's first instruction.
		r.eng.instr[th] = r.eng.profiles[th].Phases[0].Until * float64(r.eng.cfg.InstrBudget)
		r.step(1, 1)
		r.step(0, 0)
	})
	t.Run("migrate", func(t *testing.T) {
		// Every epoch after the first rotates the threads: one sampling,
		// and one solve of the new state in the profile window.
		r := newReuseRig(t, 1, uniform(2, 1))
		r.step(2, 1)
		for i := 0; i < 5; i++ {
			r.step(1, 1)
		}
	})
	t.Run("reset", func(t *testing.T) {
		r := newReuseRig(t, 0, uniform(2, 1))
		r.step(2, 1)
		r.step(0, 0)
		r.eng.Reset()
		r.eng.SetPolicy(&stubPolicy{ds: []policy.Decision{uniform(2, 1)}})
		r.epoch = 0
		r.step(2, 1)
		r.step(0, 0)
	})
	t.Run("rerun", func(t *testing.T) {
		// A full controller-driven run costs the same counts again after
		// Reset, and skips most of its solves and samplings.
		cfg := Config{Mix: workload.MustGet("MEM1"), InstrBudget: 16_000_000}
		cfg.Policy = must(core.New(cfg.PolicyConfig()))
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		solves, samplings := eng.Solves(), eng.Samplings()
		// Each epoch has a profile window and subSteps sub-intervals.
		if calls := int64(res.Epochs * (1 + subSteps)); solves >= calls || samplings >= calls {
			t.Errorf("%d solves and %d samplings over %d sub-intervals: nothing reused", solves, samplings, calls)
		}
		eng.Reset()
		eng.SetPolicy(must(core.New(cfg.PolicyConfig())))
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if s, m := eng.Solves()-solves, eng.Samplings()-samplings; s != solves || m != samplings {
			t.Errorf("after Reset: %d solves and %d samplings, want %d and %d", s, m, solves, samplings)
		}
	})
}
