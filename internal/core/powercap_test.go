package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// candidate, every candidate of every move evaluated, and a second
// evaluation of every candidate when no move fits the slack bound. edges
// counts the moves that reached the cases the walk's selection must get
// right.
func refDecideCapped(p *PowerCap, obs policy.Observation) (d policy.Decision, edges refEdges, err error) {
	ev := policy.NewEvaluator(p.cfg, obs)
	n := p.cfg.NCores
	minSteps := make([]int, n)
	for i := range minSteps {
		minSteps[i] = p.cfg.CoreLadder.Steps() - 1
	}
	minMem := p.cfg.MemLadder.Steps() - 1
	minEval := ev.Evaluate(minSteps, minMem)
	if minEval.Power.Total > p.capW {
		return policy.Decision{CoreSteps: minSteps, MemStep: minMem},
			edges, fmt.Errorf("%w: cap %g W below minimum achievable %g W",
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
		move, ok := refBestMove(p, ev, steps, memStep, cur, limits, &edges)
		if !ok {
			break
		}
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
	return best, edges, nil
}

// refEdges counts the moves of reference walks that reached each case of
// the candidate selection the walk's early exit and fallback must match.
type refEdges struct {
	fallbacks  int // no candidate within the slack bound
	infOutside int // the first +Inf candidate is outside the bound, a later one inside
	multiInf   int // two or more candidates have +Inf utility
}

func (e *refEdges) add(o refEdges) {
	e.fallbacks += o.fallbacks
	e.infOutside += o.infOutside
	e.multiInf += o.multiInf
}

type refMove struct {
	steps   []int
	memStep int
	eval    policy.Eval
}

// refBestMove is the reference oracle's candidate selection. It counts in
// edges the selection cases the move reached.
func refBestMove(p *PowerCap, ev *policy.Evaluator, steps []int, memStep int, cur policy.Eval, limits []float64, edges *refEdges) (refMove, bool) {
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
	infs, firstInfWithin, laterInfWithin := 0, false, false
	for pass := 0; pass < 2 && !bestOK; pass++ {
		if pass == 1 {
			edges.fallbacks++
		}
		for _, c := range cands {
			e := ev.Evaluate(c.steps, c.memStep)
			u := Utility(cur.Power.Total-e.Power.Total, e.MaxSlow-cur.MaxSlow)
			within := policy.WithinBound(e, limits)
			if pass == 0 && math.IsInf(u, 1) {
				if infs++; infs == 1 {
					firstInfWithin = within
				} else {
					laterInfWithin = laterInfWithin || within
				}
			}
			if pass == 0 && !within {
				continue
			}
			if u > bestU {
				bestU = u
				c.eval = e
				best = c
				bestOK = true
			}
		}
	}
	if infs > 0 && !firstInfWithin && laterInfWithin {
		edges.infOutside++
	}
	if infs >= 2 {
		edges.multiInf++
	}
	return best, bestOK
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
// capped walk: over all 16 mixes, caps from 40% to 105% of the all-max
// power and Gamma 0 and 0.10, DecideCapped must return exactly the
// reference oracle's step vectors, memory step and infeasibility outcome,
// and Predicted must report the Float64bits of a fresh evaluation of the
// returned point.
// Both controllers Observe a seeded epoch after every decision, so the
// slack limits vary along the sequence; a third pass at Gamma 0.10 jitters
// each core's committed instructions in the observed epochs, so threads
// bank different slack and the per-core limits differ. The grid must reach
// the infeasible clamp, the fallback to moves outside the slack bound, a
// move with several free (+Inf utility) candidates, and a move whose first
// free candidate is outside the bound while a later one is inside.
func TestPowerCapMatchesReferenceOracle(t *testing.T) {
	rng, jrng := trace.NewRand(2012), trace.NewRand(2013)
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	decisions, infeasible := 0, 0
	var edges refEdges
	var fresh policy.Evaluator
	var freshEval policy.Eval
	for _, name := range workload.Names() {
		mix := must(workload.Get(name))
		for _, pass := range []struct {
			gamma  float64
			jitter bool
		}{{0, false}, {0.10, false}, {0.10, true}} {
			cfg := testCfg(mix.Cores())
			cfg.Gamma = pass.gamma
			r := rng
			if pass.jitter {
				r = jrng
			}
			got, ref := must(NewPowerCap(cfg, 1)), must(NewPowerCap(cfg, 1))
			for k := 0; k <= 13; k++ {
				frac := 0.40 + 0.05*float64(k)
				obs := capMixObs(cfg, mix, llc, r.Float64())
				capW := policy.NewEvaluator(cfg, obs).Baseline().Power.Total * frac
				if err := got.SetCap(capW); err != nil {
					t.Fatal(err)
				}
				if err := ref.SetCap(capW); err != nil {
					t.Fatal(err)
				}
				want, e, wantErr := refDecideCapped(ref, obs)
				d, err := got.DecideCapped(obs)
				ctx := fmt.Sprintf("%s gamma=%g jitter=%t cap=%.2f", name, pass.gamma, pass.jitter, frac)
				requireRefDecision(t, ctx, d, err, want, wantErr)
				fresh.Reset(cfg, obs)
				fresh.EvaluateInto(&freshEval, d.CoreSteps, d.MemStep)
				if watts, slow := got.Predicted(); math.Float64bits(watts) != math.Float64bits(freshEval.Power.Total) ||
					math.Float64bits(slow) != math.Float64bits(freshEval.MaxSlow) {
					t.Fatalf("%s: Predicted() = (%v W, %v), fresh evaluation (%v W, %v)",
						ctx, watts, slow, freshEval.Power.Total, freshEval.MaxSlow)
				}
				decisions++
				if wantErr != nil {
					infeasible++
				}
				edges.add(e)
				obs.Window *= 0.9 + 0.2*r.Float64()
				if pass.jitter {
					for i := range obs.Cores {
						obs.Cores[i].Instructions = uint64(float64(obs.Cores[i].Instructions) * (0.8 + 0.4*r.Float64()))
					}
				}
				got.Observe(obs)
				ref.Observe(obs)
			}
		}
	}
	if decisions != 16*14*3 || infeasible == 0 || edges.fallbacks == 0 || edges.infOutside == 0 || edges.multiInf == 0 {
		t.Fatalf("grid ran %d decisions, %d infeasible, moves %+v; want 672 and every case reached",
			decisions, infeasible, edges)
	}
	t.Logf("moves reaching each selection case: %+v", edges)
}

// requireRefDecision fails unless DecideCapped's decision and error match
// the reference oracle's: the same step vector, memory step and
// ErrCapInfeasible outcome.
func requireRefDecision(t *testing.T, ctx string, d policy.Decision, err error, want policy.Decision, wantErr error) {
	t.Helper()
	if errors.Is(err, ErrCapInfeasible) != errors.Is(wantErr, ErrCapInfeasible) || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference %v", ctx, err, wantErr)
	}
	if d.MemStep != want.MemStep || !slices.Equal(d.CoreSteps, want.CoreSteps) {
		t.Fatalf("%s: steps %v mem %d, reference %v mem %d", ctx, d.CoreSteps, d.MemStep, want.CoreSteps, want.MemStep)
	}
}

// TestPowerCapReplayMatchesReferenceOracle is the equivalence property of
// the trail replay. Per mix, at Gamma 0 and 0.10, one controller decides
// on one observation under caps above the all-max power, at it, inside the
// trail, beyond its end, exactly at a visited point's watts, at the floor
// and below it (infeasible): descending, then ascending, then each cap
// twice. The sequence runs again after flipping one stats bit of the
// caller's observation in place, after turning a +0 field into −0, and
// after an Observe that moves the slack. Every decision must match the
// reference oracle's step vectors, memory step and infeasibility outcome,
// with Predicted equal to a fresh evaluation by Float64bits; a decision
// the kept trail already covers must evaluate nothing, and one after the
// observation changed must walk afresh.
func TestPowerCapReplayMatchesReferenceOracle(t *testing.T) {
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	var fresh policy.Evaluator
	var freshEval policy.Eval
	replays, extends, rewalks := 0, 0, 0
	for _, name := range workload.Names() {
		mix := must(workload.Get(name))
		for _, gamma := range []float64{0, 0.10} {
			cfg := testCfg(mix.Cores())
			cfg.Gamma = gamma
			obs := capMixObs(cfg, mix, llc, 0.3)
			obs.Cores[0].Mix.FPU = 0 // the +0 field the third pass negates
			got, ref := must(NewPowerCap(cfg, 1)), must(NewPowerCap(cfg, 1))
			fresh.Reset(cfg, obs)
			full := fresh.Baseline().Power.Total
			floorSteps := make([]int, cfg.NCores)
			for i := range floorSteps {
				floorSteps[i] = cfg.CoreLadder.Steps() - 1
			}
			fresh.EvaluateInto(&freshEval, floorSteps, cfg.MemLadder.Steps()-1)
			floor := freshEval.Power.Total
			base := []float64{1.05 * full, full, 0.85 * full, 0.7 * full, 0.55 * full, floor, math.Nextafter(floor, 0)}

			// changed reports whether the observation or the limits moved
			// since the last decision: 1 they did, 0 they did not, -1 unknown.
			changed := 1
			var refs map[uint64]policy.Decision
			var refErrs map[uint64]error
			decide := func(ctx string, capW float64) {
				t.Helper()
				if err := got.SetCap(capW); err != nil {
					t.Fatal(err)
				}
				bits := math.Float64bits(capW)
				if _, ok := refs[bits]; !ok {
					if err := ref.SetCap(capW); err != nil {
						t.Fatal(err)
					}
					refs[bits], _, refErrs[bits] = refDecideCapped(ref, obs)
				}
				tr := got.walk.Trail()
				covered := capW < got.floorW || slices.ContainsFunc(tr.Watts, func(w float64) bool { return w <= capW })
				evals := got.Evals()
				d, err := got.DecideCapped(obs)
				ctx = fmt.Sprintf("%s gamma=%g %s cap=%v W", name, gamma, ctx, capW)
				requireRefDecision(t, ctx, d, err, refs[bits], refErrs[bits])
				fresh.Reset(cfg, obs)
				fresh.EvaluateInto(&freshEval, d.CoreSteps, d.MemStep)
				if watts, slow := got.Predicted(); math.Float64bits(watts) != math.Float64bits(freshEval.Power.Total) ||
					math.Float64bits(slow) != math.Float64bits(freshEval.MaxSlow) {
					t.Fatalf("%s: Predicted() = (%v W, %v), fresh evaluation (%v W, %v)",
						ctx, watts, slow, freshEval.Power.Total, freshEval.MaxSlow)
				}
				grew := got.Evals() != evals
				switch {
				case changed == 1 && !grew:
					t.Fatalf("%s: the observation changed but the controller evaluated nothing", ctx)
				case changed == 1:
					rewalks++
				case changed == 0 && covered && grew:
					t.Fatalf("%s: the kept trail covers the cap but the controller evaluated %d points", ctx, got.Evals()-evals)
				case changed == 0 && covered:
					replays++
				case changed == 0:
					extends++
				}
				changed = 0
			}
			sequence := func(pass string) {
				refs, refErrs = map[uint64]policy.Decision{}, map[uint64]error{}
				caps := slices.Clone(base)
				for _, c := range base {
					decide(pass+" descending", c)
					at, _ := got.Predicted() // exactly a visited point's watts: the trail's end
					decide(pass+" at a trail point", at)
					caps = append(caps, at)
				}
				slices.Sort(caps)
				for _, c := range caps {
					decide(pass+" ascending", c)
				}
				for _, c := range caps {
					decide(pass+" repeated", c)
					decide(pass+" repeated", c)
				}
			}
			sequence("first")
			obs.Cores[1].Stats.CPIBase = math.Float64frombits(math.Float64bits(obs.Cores[1].Stats.CPIBase) ^ 1)
			changed = 1
			sequence("stats bit flipped")
			obs.Cores[0].Mix.FPU = math.Copysign(0, -1)
			changed = 1
			sequence("+0 negated")
			epoch := obs.Clone()
			epoch.Window *= 0.9
			got.Observe(epoch)
			ref.Observe(epoch)
			changed = -1
			sequence("after Observe")
		}
	}
	if replays == 0 || extends == 0 || rewalks != 16*2*3 {
		t.Fatalf("%d replayed, %d extended and %d fresh walks; want replays, extensions and %d fresh walks",
			replays, extends, rewalks, 16*2*3)
	}
}

// TestCapWalkEndsAtFloor pins why DecideCapped needs no fallback once the
// floor pre-check passes: run to its end, the walk stands at the
// all-minimum point with the floor evaluation's Float64bits, which is at or
// under any cap the pre-check accepts.
func TestCapWalkEndsAtFloor(t *testing.T) {
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	for _, name := range workload.Names() {
		mix := must(workload.Get(name))
		for _, gamma := range []float64{0, 0.10} {
			cfg := testCfg(mix.Cores())
			cfg.Gamma = gamma
			obs := capMixObs(cfg, mix, llc, 0.6)
			p := must(NewPowerCap(cfg, 1e-3))
			if _, err := p.DecideCapped(obs); !errors.Is(err, ErrCapInfeasible) {
				t.Fatalf("%s gamma=%g: a 1 mW cap returned %v", name, gamma, err)
			}
			for p.walk.Step() {
			}
			tr := p.walk.Trail()
			last := tr.Len() - 1
			floor := make([]int, cfg.NCores)
			for i := range floor {
				floor[i] = cfg.CoreLadder.Steps() - 1
			}
			if !slices.Equal(tr.Steps(last), floor) || tr.Mems[last] != cfg.MemLadder.Steps()-1 ||
				math.Float64bits(tr.Watts[last]) != math.Float64bits(p.floorW) ||
				math.Float64bits(tr.Slow[last]) != math.Float64bits(p.floorS) {
				t.Fatalf("%s gamma=%g: the walk ends at %v mem %d (%v W, %v), the floor is %v mem %d (%v W, %v)",
					name, gamma, tr.Steps(last), tr.Mems[last], tr.Watts[last], tr.Slow[last],
					floor, cfg.MemLadder.Steps()-1, p.floorW, p.floorS)
			}
		}
	}
}

// TestPowerCapDecideZeroAllocSteadyState is the alloc-budget gate for the
// capped walk (DESIGN.md §7): once the first calls size the controller's
// scratch, DecideCapped must not allocate, neither across changing
// observations (a fresh walk each call) nor on one observation under
// alternating caps (the trail replay), and Observe's slack accounting must
// not allocate either.
func TestPowerCapDecideZeroAllocSteadyState(t *testing.T) {
	cfg := testCfg(16)
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	mix := must(workload.Get("MID1"))
	obs := [2]policy.Observation{capMixObs(cfg, mix, llc, 0.2), capMixObs(cfg, mix, llc, 0.7)}
	full := policy.NewEvaluator(cfg, obs[0]).Baseline().Power.Total
	p := must(NewPowerCap(cfg, 0.6*full))
	for _, o := range obs { // the 60% cap walks further than the 80% one below
		if _, err := p.DecideCapped(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetCap(0.8 * full); err != nil {
		t.Fatal(err)
	}
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := p.DecideCapped(obs[i&1]); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Errorf("DecideCapped allocates %.1f times per call across changing observations, want 0", avg)
	}
	caps := [2]float64{0.6 * full, 0.8 * full}
	replay := func() {
		if err := p.SetCap(caps[i&1]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.DecideCapped(obs[0]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	replay() // walks obs[0] to the 60% cap's point, or replays it
	replay()
	evals := p.Evals()
	if avg := testing.AllocsPerRun(100, replay); avg != 0 {
		t.Errorf("DecideCapped allocates %.1f times per call replaying one observation, want 0", avg)
	}
	if p.Evals() != evals {
		t.Errorf("replaying one observation evaluated %d points, want 0", p.Evals()-evals)
	}
	p.Observe(obs[0]) // creates the threads' trackers and sizes the book's evaluator
	if avg := testing.AllocsPerRun(100, func() {
		p.Observe(obs[i&1])
		i++
	}); avg != 0 {
		t.Errorf("Observe allocates %.1f times per call, want 0", avg)
	}
}

// TestPowerCapContracts states PowerCap's two budget contracts as
// properties over the oracle test's grid — all 16 mixes, caps from 40% to
// 105% of the all-max power, Gamma 0 and 0.10, slack varying along the
// sequence: DecideCapped returns ErrCapInfeasible exactly when the
// all-minimum configuration's predicted power exceeds the cap, and under a
// feasible cap the returned decision's predicted power never exceeds it.
// The floor and the decision's power come from an independent evaluator,
// not from the walk's own.
func TestPowerCapContracts(t *testing.T) {
	rng := trace.NewRand(2012)
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	feasible, infeasible := 0, 0
	for _, name := range workload.Names() {
		mix := must(workload.Get(name))
		for _, gamma := range []float64{0, 0.10} {
			cfg := testCfg(mix.Cores())
			cfg.Gamma = gamma
			p := must(NewPowerCap(cfg, 1))
			minSteps := make([]int, cfg.NCores)
			for i := range minSteps {
				minSteps[i] = cfg.CoreLadder.Steps() - 1
			}
			for k := 0; k <= 13; k++ {
				frac := 0.40 + 0.05*float64(k)
				obs := capMixObs(cfg, mix, llc, rng.Float64())
				ev := policy.NewEvaluator(cfg, obs)
				capW := ev.Baseline().Power.Total * frac
				floor := ev.Evaluate(minSteps, cfg.MemLadder.Steps()-1).Power.Total
				if err := p.SetCap(capW); err != nil {
					t.Fatal(err)
				}
				d, err := p.DecideCapped(obs)
				ctx := fmt.Sprintf("%s gamma=%g cap=%.2f", name, gamma, frac)
				if errors.Is(err, ErrCapInfeasible) != (floor > capW) {
					t.Fatalf("%s: err = %v with floor %.6f W and cap %.6f W", ctx, err, floor, capW)
				}
				switch {
				case err == nil:
					feasible++
					if got := ev.Evaluate(d.CoreSteps, d.MemStep).Power.Total; got > capW {
						t.Errorf("%s: decision predicted at %.6f W over the feasible %.6f W cap", ctx, got, capW)
					}
				case errors.Is(err, ErrCapInfeasible):
					infeasible++
				default:
					t.Fatalf("%s: %v", ctx, err)
				}
				obs.Window *= 0.9 + 0.2*rng.Float64()
				p.Observe(obs)
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("grid reached %d feasible and %d infeasible caps; want both", feasible, infeasible)
	}
}
