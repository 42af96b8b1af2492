package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"coscale/internal/cache"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

func TestPowerCapValidation(t *testing.T) {
	if _, err := NewPowerCap(testCfg(4), 0); err == nil {
		t.Error("zero cap accepted")
	}
}

func TestPowerCapName(t *testing.T) {
	p := must(NewPowerCap(testCfg(4), 200))
	if p.Name() != "CoScale-PowerCap" || p.Cap() != 200 {
		t.Errorf("Name/Cap = %s/%g", p.Name(), p.Cap())
	}
}

func TestPowerCapMeetsBudget(t *testing.T) {
	cfg := testCfg(16)
	cfg.Gamma = 0.10
	obs := synthObs(cfg, uniform(16, compute))
	ev := policy.NewEvaluator(cfg, obs)
	full := ev.Baseline().Power.Total

	for _, frac := range []float64{0.9, 0.75, 0.6} {
		cap := full * frac
		d := must(NewPowerCap(cfg, cap)).Decide(obs)
		e := ev.Evaluate(d.CoreSteps, d.MemStep)
		if e.Power.Total > cap*1.001 {
			t.Errorf("cap %.0f W (%.0f%%): predicted power %.0f W over budget", cap, frac*100, e.Power.Total)
		}
	}
}

func TestPowerCapPrefersFastestCompliantPoint(t *testing.T) {
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(8, compute))
	ev := policy.NewEvaluator(cfg, obs)
	full := ev.Baseline().Power.Total

	// A generous cap should not slow the system at all.
	d := must(NewPowerCap(cfg, full*1.05)).Decide(obs)
	e := ev.Evaluate(d.CoreSteps, d.MemStep)
	if e.MaxSlow > 1.0001 {
		t.Errorf("generous cap caused slowdown %.4f", e.MaxSlow)
	}

	// A tighter cap slows things, but monotonically: a lower cap must not
	// give a faster system.
	d90 := must(NewPowerCap(cfg, full*0.9)).Decide(obs)
	d70 := must(NewPowerCap(cfg, full*0.7)).Decide(obs)
	s90 := ev.Evaluate(d90.CoreSteps, d90.MemStep).MaxSlow
	s70 := ev.Evaluate(d70.CoreSteps, d70.MemStep).MaxSlow
	if s70 < s90-1e-9 {
		t.Errorf("tighter cap produced faster system: %.4f vs %.4f", s70, s90)
	}
}

func TestPowerCapUnreachableFallsBackToMinimumPower(t *testing.T) {
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(8, memory))
	ev := policy.NewEvaluator(cfg, obs)
	d := must(NewPowerCap(cfg, 1)).Decide(obs) // 1 W: impossible
	e := ev.Evaluate(d.CoreSteps, d.MemStep)
	// Must be at or near the ladder bottoms.
	if d.MemStep != cfg.MemLadder.Steps()-1 {
		t.Errorf("memory not at bottom: step %d", d.MemStep)
	}
	for i, s := range d.CoreSteps {
		if s != cfg.CoreLadder.Steps()-1 {
			t.Errorf("core %d not at bottom: step %d", i, s)
		}
	}
	if e.Power.Total >= ev.Baseline().Power.Total {
		t.Error("fallback did not reduce power")
	}
}

func TestPowerCapInfeasibleClampsToMinimum(t *testing.T) {
	// A cap below the all-minimum-frequency power must clamp to the ladder
	// floor and surface the typed error instead of silently thrashing.
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(8, memory))
	ev := policy.NewEvaluator(cfg, obs)
	minSteps := make([]int, 8)
	for i := range minSteps {
		minSteps[i] = cfg.CoreLadder.Steps() - 1
	}
	minMem := cfg.MemLadder.Steps() - 1
	floor := ev.Evaluate(minSteps, minMem).Power.Total

	p := must(NewPowerCap(cfg, floor*0.5))
	d, err := p.DecideCapped(obs)
	if !errors.Is(err, ErrCapInfeasible) {
		t.Fatalf("DecideCapped(cap %.1f W < floor %.1f W) err = %v, want ErrCapInfeasible", floor*0.5, floor, err)
	}
	if d.MemStep != minMem {
		t.Errorf("memory not clamped to bottom: step %d", d.MemStep)
	}
	for i, s := range d.CoreSteps {
		if s != cfg.CoreLadder.Steps()-1 {
			t.Errorf("core %d not clamped to bottom: step %d", i, s)
		}
	}
	// Decide (the policy.Policy form) returns the same clamp, error swallowed.
	d2 := p.Decide(obs)
	if d2.MemStep != d.MemStep || len(d2.CoreSteps) != len(d.CoreSteps) {
		t.Error("Decide disagrees with DecideCapped on the infeasible clamp")
	}
}

func TestPowerCapFeasibleAtExactFloor(t *testing.T) {
	// The boundary: a cap exactly at (or a hair above) the minimum
	// achievable power is feasible — no error, and the cap is met.
	cfg := testCfg(8)
	obs := synthObs(cfg, uniform(8, memory))
	ev := policy.NewEvaluator(cfg, obs)
	minSteps := make([]int, 8)
	for i := range minSteps {
		minSteps[i] = cfg.CoreLadder.Steps() - 1
	}
	floor := ev.Evaluate(minSteps, cfg.MemLadder.Steps()-1).Power.Total

	p := must(NewPowerCap(cfg, floor))
	d, err := p.DecideCapped(obs)
	if err != nil {
		t.Fatalf("cap exactly at the floor reported infeasible: %v", err)
	}
	if e := ev.Evaluate(d.CoreSteps, d.MemStep); e.Power.Total > floor*(1+1e-9) {
		t.Errorf("decision power %.3f W exceeds the floor cap %.3f W", e.Power.Total, floor)
	}
}

func TestPowerCapSetCap(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewPowerCap(cfg, 300))
	if err := p.SetCap(0); err == nil {
		t.Error("SetCap(0) accepted")
	}
	if err := p.SetCap(-5); err == nil {
		t.Error("SetCap(-5) accepted")
	}
	if p.Cap() != 300 {
		t.Errorf("rejected SetCap mutated the cap: %g", p.Cap())
	}
	if err := p.SetCap(150); err != nil {
		t.Fatalf("SetCap(150): %v", err)
	}
	if p.Cap() != 150 {
		t.Errorf("Cap after SetCap = %g, want 150", p.Cap())
	}
	// The new cap governs subsequent decisions.
	obs := synthObs(cfg, uniform(4, compute))
	ev := policy.NewEvaluator(cfg, obs)
	d := p.Decide(obs)
	if e := ev.Evaluate(d.CoreSteps, d.MemStep); e.Power.Total > 150*1.001 {
		t.Errorf("decision ignores SetCap: %.1f W > 150 W", e.Power.Total)
	}
}

func TestPowerCapObserveAccumulatesSlack(t *testing.T) {
	cfg := testCfg(4)
	p := must(NewPowerCap(cfg, 300))
	obs := synthObs(cfg, uniform(4, compute))
	obs.Window = cfg.EpochLen.Seconds()
	p.Observe(obs) // must not panic; slack bookkeeping exercised
}

func TestPowerCapRespectsCapOverSLO(t *testing.T) {
	// When the cap and the SLO conflict, the cap wins (capping exists to
	// protect the branch circuit, not the workload).
	cfg := testCfg(8)
	cfg.Gamma = 0.01 // very tight SLO
	obs := synthObs(cfg, uniform(8, compute))
	ev := policy.NewEvaluator(cfg, obs)
	full := ev.Baseline().Power.Total
	cap := full * 0.65
	d := must(NewPowerCap(cfg, cap)).Decide(obs)
	e := ev.Evaluate(d.CoreSteps, d.MemStep)
	if e.Power.Total > cap*1.001 {
		t.Errorf("cap not met under tight SLO: %.0f W > %.0f W", e.Power.Total, cap)
	}
}

func TestPowerCapWithRescaledSystem(t *testing.T) {
	// Works under non-default power calibrations too (Fig. 12/13 knobs).
	cfg := testCfg(8)
	cfg.Power = power.CalibratedSystem(8, 0.3, 0.6, 0.1)
	obs := synthObs(cfg, uniform(8, memory))
	ev := policy.NewEvaluator(cfg, obs)
	cap := ev.Baseline().Power.Total * 0.8
	d := must(NewPowerCap(cfg, cap)).Decide(obs)
	if e := ev.Evaluate(d.CoreSteps, d.MemStep); e.Power.Total > cap*1.001 {
		t.Errorf("cap not met on rescaled system: %.0f > %.0f", e.Power.Total, cap)
	}
}

// refDecideCapped is DecideCapped as it stood before the single-evaluation
// rewrite, kept as the reference oracle of the equivalence property: a
// fresh evaluator per call, a full Evaluate and step-vector copies per
// candidate, and a second evaluation of every candidate when no move fits
// the slack bound. fellBack reports whether any move took that fallback.
func refDecideCapped(p *PowerCap, obs policy.Observation) (d policy.Decision, fellBack bool, err error) {
	ev := &policy.Evaluator{UseTables: true}
	ev.Reset(p.cfg, obs)
	n := p.cfg.NCores
	minSteps := make([]int, n)
	for i := range minSteps {
		minSteps[i] = p.cfg.CoreLadder.Steps() - 1
	}
	minMem := p.cfg.MemLadder.Steps() - 1
	minEval := ev.Evaluate(minSteps, minMem)
	if minEval.Power.Total > p.capW {
		return policy.Decision{CoreSteps: minSteps, MemStep: minMem},
			false, fmt.Errorf("%w: cap %g W below minimum achievable %g W",
				ErrCapInfeasible, p.capW, minEval.Power.Total)
	}
	limits := p.cfg.Limits(p.slack.AvailableFor(obs.CoreThreads()))

	steps := policy.ZeroSteps(n)
	memStep := 0
	cur := ev.Evaluate(steps, memStep)
	best := policy.Decision{CoreSteps: append([]int(nil), steps...), MemStep: memStep}
	bestSlow := math.Inf(1)
	bestPower := cur.Power.Total
	found := cur.Power.Total <= p.capW
	if found {
		bestSlow = cur.MaxSlow
	}
	maxIters := p.cfg.MemLadder.Steps() + p.cfg.CoreLadder.Steps()*n
	for iter := 0; iter < maxIters && cur.Power.Total > p.capW; iter++ {
		move, pass, ok := refBestMove(p, ev, steps, memStep, cur, limits)
		if !ok {
			break
		}
		fellBack = fellBack || pass == 1
		steps, memStep, cur = move.steps, move.memStep, move.eval
		under := cur.Power.Total <= p.capW
		switch {
		case under && cur.MaxSlow < bestSlow:
			bestSlow = cur.MaxSlow
			best = policy.Decision{CoreSteps: append([]int(nil), steps...), MemStep: memStep}
			found = true
		case !found && cur.Power.Total < bestPower:
			bestPower = cur.Power.Total
			best = policy.Decision{CoreSteps: append([]int(nil), steps...), MemStep: memStep}
		}
	}
	return best, fellBack, nil
}

type refMove struct {
	steps   []int
	memStep int
	eval    policy.Eval
}

// refBestMove is the reference oracle's candidate selection; pass reports
// which of the two passes chose the move.
func refBestMove(p *PowerCap, ev *policy.Evaluator, steps []int, memStep int, cur policy.Eval, limits []float64) (refMove, int, bool) {
	var cands []refMove
	if !p.cfg.MemLadder.Bottom(memStep) {
		cands = append(cands, refMove{steps: append([]int(nil), steps...), memStep: memStep + 1})
	}
	for i := range steps {
		if p.cfg.CoreLadder.Bottom(steps[i]) {
			continue
		}
		s := append([]int(nil), steps...)
		s[i]++
		cands = append(cands, refMove{steps: s, memStep: memStep})
	}
	bestU := math.Inf(-1)
	var best refMove
	bestOK := false
	pass := 0
	for ; pass < 2 && !bestOK; pass++ {
		for _, c := range cands {
			e := ev.Evaluate(c.steps, c.memStep)
			if pass == 0 && !policy.WithinBound(e, limits) {
				continue
			}
			if u := Utility(cur.Power.Total-e.Power.Total, e.MaxSlow-cur.MaxSlow); u > bestU {
				bestU = u
				c.eval = e
				best = c
				bestOK = true
			}
		}
	}
	return best, pass - 1, bestOK
}

// capMixObs synthesizes a node's profiling observation for one Table 1 mix
// at phase fraction frac: each core samples its application's profile, the
// shared LLC splits capacity by access weight, and the solver at maximum
// frequencies supplies the counters.
func capMixObs(cfg policy.Config, mix workload.Mix, llc *cache.ShareModel, frac float64) policy.Observation {
	n := cfg.NCores
	weights := make([]float64, n)
	profiles := make([]*trace.AppProfile, n)
	for i := range profiles {
		profiles[i] = must(mix.AppForCore(i))
		weights[i] = profiles[i].At(frac).L2APKI
	}
	shares := llc.Shares(weights)
	stats := make([]perf.CoreStats, n)
	for i, p := range profiles {
		s := p.At(frac)
		mpki := p.MPKIAt(frac, shares[i])
		stats[i] = perf.CoreStats{CPIBase: s.CPIBase, Alpha: s.L2APKI / 1000, StallL2: cache.DefaultHitTime,
			Beta: mpki / 1000, MemPerInstr: (mpki + mpki*s.DirtyFrac) / 1000, MLP: s.MLP}
	}
	obs := synthObs(cfg, stats)
	for i, p := range profiles {
		obs.Cores[i].Mix = p.At(frac).Mix
	}
	return obs
}

// TestPowerCapMatchesReferenceOracle is the equivalence property of the
// single-evaluation walk: over all 16 mixes, caps from 40% to 105% of the
// all-max power and Gamma 0 and 0.10, DecideCapped must return exactly the
// reference oracle's step vectors, memory step and infeasibility outcome.
// Both controllers Observe a seeded epoch after every decision, so the
// slack limits vary along the sequence. The grid must reach both the
// infeasible clamp and the fallback to moves outside the slack bound.
func TestPowerCapMatchesReferenceOracle(t *testing.T) {
	rng := trace.NewRand(2012)
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	decisions, infeasible, fallbacks := 0, 0, 0
	for _, name := range workload.Names() {
		mix := must(workload.Get(name))
		for _, gamma := range []float64{0, 0.10} {
			cfg := testCfg(mix.Cores())
			cfg.Gamma = gamma
			got, ref := must(NewPowerCap(cfg, 1)), must(NewPowerCap(cfg, 1))
			for k := 0; k <= 13; k++ {
				frac := 0.40 + 0.05*float64(k)
				obs := capMixObs(cfg, mix, llc, rng.Float64())
				capW := policy.NewEvaluator(cfg, obs).Baseline().Power.Total * frac
				if err := got.SetCap(capW); err != nil {
					t.Fatal(err)
				}
				if err := ref.SetCap(capW); err != nil {
					t.Fatal(err)
				}
				want, fellBack, wantErr := refDecideCapped(ref, obs)
				d, err := got.DecideCapped(obs)
				ctx := fmt.Sprintf("%s gamma=%g cap=%.2f", name, gamma, frac)
				if errors.Is(err, ErrCapInfeasible) != errors.Is(wantErr, ErrCapInfeasible) || (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: err = %v, reference %v", ctx, err, wantErr)
				}
				if d.MemStep != want.MemStep || len(d.CoreSteps) != len(want.CoreSteps) {
					t.Fatalf("%s: mem step %d with %d cores, reference %d with %d",
						ctx, d.MemStep, len(d.CoreSteps), want.MemStep, len(want.CoreSteps))
				}
				for i := range want.CoreSteps {
					if d.CoreSteps[i] != want.CoreSteps[i] {
						t.Fatalf("%s: core %d step %d, reference %d", ctx, i, d.CoreSteps[i], want.CoreSteps[i])
					}
				}
				decisions++
				if wantErr != nil {
					infeasible++
				}
				if fellBack {
					fallbacks++
				}
				obs.Window *= 0.9 + 0.2*rng.Float64()
				got.Observe(obs)
				ref.Observe(obs)
			}
		}
	}
	if decisions != 16*14*2 || infeasible == 0 || fallbacks == 0 {
		t.Fatalf("grid ran %d decisions, %d infeasible, %d with the fallback; want 448 and both cases reached",
			decisions, infeasible, fallbacks)
	}
}

// TestPowerCapDecideZeroAllocSteadyState is the alloc-budget gate for the
// capped walk (DESIGN.md §7): once the first call sizes the controller's
// scratch, DecideCapped must not allocate, even across changing
// observations.
func TestPowerCapDecideZeroAllocSteadyState(t *testing.T) {
	cfg := testCfg(16)
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	mix := must(workload.Get("MID1"))
	obs := [2]policy.Observation{capMixObs(cfg, mix, llc, 0.2), capMixObs(cfg, mix, llc, 0.7)}
	p := must(NewPowerCap(cfg, 0.8*policy.NewEvaluator(cfg, obs[0]).Baseline().Power.Total))
	for _, o := range obs {
		if _, err := p.DecideCapped(o); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		if _, err := p.DecideCapped(obs[i&1]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("DecideCapped allocates %.1f times per call in steady state, want 0", avg)
	}
}
