package core

import (
	"math"
	"testing"

	"coscale/internal/policy"
)

// warmCS builds a WarmStart controller.
func warmCS(t *testing.T, cfg policy.Config) *CoScale {
	t.Helper()
	cs, err := NewWithOptions(cfg, Options{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// checkBound re-evaluates a decision with a fresh evaluator and requires it
// inside the controller's own scaled limits for the deciding epoch.
func checkBound(t *testing.T, cs *CoScale, cfg policy.Config, obs policy.Observation, d policy.Decision) {
	t.Helper()
	e := policy.NewEvaluator(cfg, obs).Evaluate(d.CoreSteps, d.MemStep)
	if !policy.WithinBoundScaled(e, cs.scaled) {
		t.Fatalf("decision %v mem %d violates the scaled bound: MaxSlow %v", d.CoreSteps, d.MemStep, e.MaxSlow)
	}
}

func TestWarmName(t *testing.T) {
	cfg := testCfg(4)
	cs := must(NewWithOptions(cfg, Options{WarmStart: true}))
	if got := cs.Name(); got != "CoScale-Warm" {
		t.Fatalf("Name() = %q, want CoScale-Warm", got)
	}
}

// TestWarmStableHit is the tentpole's contract on a stable phase: the first
// decision is cold (no previous signature), repeats of the same observation
// warm-hit, the warm decisions stay inside the slowdown bound, and the
// warm-hit epochs run far fewer per-core marginal evaluations than the cold
// search.
func TestWarmStableHit(t *testing.T) {
	cfg := testCfg(16)
	obs := synthObs(cfg, uniform(cfg.NCores, compute))
	cs := warmCS(t, cfg)

	d := cs.Decide(obs)
	s := cs.SearchStats()
	if s.ColdSearches != 1 || s.WarmHits != 0 || s.WarmFallbacks != 0 {
		t.Fatalf("first decide stats = %+v, want one cold search", s)
	}
	coldEvals := s.CoreEvals
	checkBound(t, cs, cfg, obs, d)

	for i := 0; i < 5; i++ {
		d = cs.Decide(obs)
		s = cs.SearchStats()
		if s.WarmHits != 1 || s.ColdSearches != 0 || s.WarmFallbacks != 0 {
			t.Fatalf("repeat %d stats = %+v, want one warm hit", i, s)
		}
		if coldEvals > 0 && s.CoreEvals*3 > coldEvals {
			t.Errorf("repeat %d: warm CoreEvals %d vs cold %d, want >=3x reduction",
				i, s.CoreEvals, coldEvals)
		}
		checkBound(t, cs, cfg, obs, d)
	}
}

// TestWarmPhaseBreakFallsBack: an observation whose counters moved far past
// PhaseEpsilon must be classified as a phase break and decided cold — with
// no WarmFallbacks, since no warm attempt was made.
func TestWarmPhaseBreakFallsBack(t *testing.T) {
	cfg := testCfg(16)
	cs := warmCS(t, cfg)

	a := synthObs(cfg, uniform(cfg.NCores, compute))
	cs.Decide(a)
	cs.Decide(a)
	if s := cs.SearchStats(); s.WarmHits != 1 {
		t.Fatalf("stable repeat stats = %+v, want a warm hit", s)
	}

	b := synthObs(cfg, uniform(cfg.NCores, memory)) // a genuinely different program phase
	d := cs.Decide(b)
	s := cs.SearchStats()
	if s.ColdSearches != 1 || s.WarmHits != 0 || s.WarmFallbacks != 0 {
		t.Fatalf("phase-break stats = %+v, want one cold search without a fallback", s)
	}
	checkBound(t, cs, cfg, b, d)

	// The new phase is itself stable once seen: the next repeat warm-hits.
	cs.Decide(b)
	if s := cs.SearchStats(); s.WarmHits != 1 {
		t.Fatalf("post-break repeat stats = %+v, want a warm hit", s)
	}
}

// TestWarmSeedViolationFallsBack: shrink the slack between two identical
// epochs (phase detector sees a stable phase) so the previous solution no
// longer fits the bound — the warm seed must fail its full-evaluator
// re-validation and the decision fall back cold, counted as a fallback.
func TestWarmSeedViolationFallsBack(t *testing.T) {
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(cfg.NCores, compute))
	cs := warmCS(t, cfg)

	d := cs.Decide(obs)
	scaledSome := false
	for _, s := range d.CoreSteps {
		if s > 0 {
			scaledSome = true
		}
	}
	if !scaledSome && d.MemStep == 0 {
		t.Fatal("fixture decided all-max; the seed-violation scenario needs a scaled seed")
	}

	// An epoch twice as long as allotted drives every program's slack
	// negative: the next limits allow no slowdown at all.
	slow := obs
	slow.Window = cfg.EpochLen.Seconds() * 2
	cs.Observe(slow)

	d = cs.Decide(obs)
	s := cs.SearchStats()
	if s.WarmFallbacks != 1 || s.ColdSearches != 1 || s.WarmHits != 0 {
		t.Fatalf("post-shrink stats = %+v, want a warm fallback into a cold search", s)
	}
	for i, step := range d.CoreSteps {
		if step != 0 {
			t.Errorf("core %d at step %d after slack exhaustion, want all-max", i, step)
		}
	}
	if d.MemStep != 0 {
		t.Errorf("mem at step %d after slack exhaustion, want 0", d.MemStep)
	}
}

// TestWarmResetBitIdentity: after Reset a warm controller must replay a
// decision sequence bit-identically to a fresh controller — the snapshot
// table and phase signature are part of the state Reset forgets.
func TestWarmResetBitIdentity(t *testing.T) {
	cfg := testCfg(12)
	a := synthObs(cfg, uniform(cfg.NCores, compute))
	b := synthObs(cfg, uniform(cfg.NCores, memory))
	seq := []policy.Observation{a, a, a, b, b, a, a}

	run := func(cs *CoScale) ([]policy.Decision, []SearchStats) {
		ds := make([]policy.Decision, 0, len(seq))
		ss := make([]SearchStats, 0, len(seq))
		for _, obs := range seq {
			ds = append(ds, cs.Decide(obs).Clone())
			ss = append(ss, cs.SearchStats())
			cs.Observe(obs)
		}
		return ds, ss
	}

	cs := warmCS(t, cfg)
	first, firstStats := run(cs)
	cs.Reset()
	replay, replayStats := run(cs)
	fresh, freshStats := run(warmCS(t, cfg))

	check := func(name string, ds []policy.Decision, ss []SearchStats) {
		t.Helper()
		for k := range first {
			if ss[k] != firstStats[k] {
				t.Errorf("%s epoch %d stats = %+v, want %+v", name, k, ss[k], firstStats[k])
			}
			if ds[k].MemStep != first[k].MemStep {
				t.Errorf("%s epoch %d MemStep = %d, want %d", name, k, ds[k].MemStep, first[k].MemStep)
			}
			for i := range first[k].CoreSteps {
				if ds[k].CoreSteps[i] != first[k].CoreSteps[i] {
					t.Errorf("%s epoch %d core %d = %d, want %d",
						name, k, i, ds[k].CoreSteps[i], first[k].CoreSteps[i])
				}
			}
		}
	}
	check("replay after Reset", replay, replayStats)
	check("fresh controller", fresh, freshStats)
}

// TestWarmDecideZeroAllocSteadyState is the warm path's AllocsPerRun gate:
// once the first (cold) decision has sized the scratch and the snapshot
// table, warm-hit decisions must not allocate.
func TestWarmDecideZeroAllocSteadyState(t *testing.T) {
	cfg := testCfg(16)
	obs := synthObs(cfg, uniform(cfg.NCores, compute))
	cs := must(NewWithOptions(cfg, Options{WarmStart: true}))
	cs.Decide(obs) // cold warm-up sizes every buffer
	cs.Decide(obs) // first warm hit
	if s := cs.SearchStats(); s.WarmHits != 1 {
		t.Fatalf("fixture does not warm-hit: stats = %+v", s)
	}
	avg := testing.AllocsPerRun(100, func() { cs.Decide(obs) })
	if avg != 0 {
		t.Errorf("warm Decide allocates %.1f times per call in steady state, want 0", avg)
	}
}

// TestWarmDefaultEpsilonAndOverride pins the PhaseEpsilon resolution rule.
func TestWarmDefaultEpsilonAndOverride(t *testing.T) {
	cfg := testCfg(4)
	cs := must(NewWithOptions(cfg, Options{WarmStart: true}))
	if cs.phaseEps != defaultPhaseEpsilon {
		t.Errorf("default phaseEps = %v, want %v", cs.phaseEps, defaultPhaseEpsilon)
	}
	cs = must(NewWithOptions(cfg, Options{WarmStart: true, PhaseEpsilon: 0.2}))
	if cs.phaseEps != 0.2 {
		t.Errorf("phaseEps = %v, want 0.2", cs.phaseEps)
	}
}

func TestRelDelta(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{1, 1, 0},
		{1, 0, 1},
		{0, 2, 1},
		{1, 1.05, 0.05 / 1.05},
		{-1, 1, 2},
	}
	for _, tc := range cases {
		if got := relDelta(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("relDelta(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
