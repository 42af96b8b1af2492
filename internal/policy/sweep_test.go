package policy

import (
	"math"
	"slices"
	"sort"
	"testing"

	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/trace"
)

// refFixedLatency is the full fixed-latency model the sweep's per-(core,
// step) terms are summed from: per-core TPI at a pinned memory latency,
// then slowdowns and power through the direct reference's finish.
func refFixedLatency(ev *directEvaluator, coreSteps []int, memStep int, latency float64) Eval {
	hz := ev.coreHz(coreSteps)
	e := Eval{TPI: make([]float64, len(ev.stats)), Slowdown: make([]float64, len(ev.stats))}
	for i, s := range ev.stats {
		e.TPI[i] = s.TPI(hz[i], latency)
	}
	e.MemLoad = memsys.Load{Latency: latency, XiBus: 1, XiBank: 1, UtilBus: ev.obs.UtilBus}
	rate := 0.0
	for i, tpi := range e.TPI {
		if tpi > 0 && !math.IsInf(tpi, 0) {
			rate += ev.stats[i].MemPerInstr / tpi
		}
	}
	ev.finish(&e, coreSteps, hz, memStep, rate)
	return e
}

// refAssembleSteps picks, for each core, the lowest frequency whose
// slowdown stays within min(d, limits[i]).
func refAssembleSteps(slow [][]float64, limits []float64, d float64) []int {
	steps := make([]int, len(slow))
	for i := range slow {
		lim := limits[i]
		if d < lim {
			lim = d
		}
		for s := len(slow[i]) - 1; s >= 0; s-- {
			if slow[i][s] <= lim*(1+1e-12) {
				steps[i] = s
				break
			}
		}
	}
	return steps
}

// refSweepStats counts the tie paths a reference sweep took, the thresholds
// at which the 1e-12 guard alone let a core other than d's own advance, and
// the sweeps with two cores whose slowdown rows are bit-identical, and the
// thresholds of -Inf (a negative TPI over a zero reference).
type refSweepStats struct{ dupCands, serTies, guardOthers, identicalRows, negInf int }

// refCoreSweep is the direct form of coreSweep.run: build every core's
// slowdown row, sort the candidate boundaries, then assemble, evaluate with
// the full fixed-latency model, bound-check and SER-score each candidate
// from scratch. It returns the winner (all zeros when none is feasible),
// its SER and whether any candidate was feasible.
func refCoreSweep(ev *directEvaluator, memStep int, latency float64, refTPI, limits []float64, st *refSweepStats) ([]int, float64, bool) {
	ladder := ev.Cfg.CoreLadder
	slow := make([][]float64, len(refTPI))
	var cands []float64
	for i := range slow {
		slow[i] = make([]float64, ladder.Steps())
		for s := range slow[i] {
			sd := ev.stats[i].TPI(ladder.Hz(s), latency) / refTPI[i]
			slow[i][s] = sd
			if sd <= limits[i]*(1+1e-12) {
				cands = append(cands, sd)
			}
		}
	}
	cands = append(cands, 1)
	sort.Float64s(cands)
	for i := range slow {
		if i > 0 && slices.ContainsFunc(slow[:i], func(r []float64) bool { return sameFloats(r, slow[i]) }) {
			st.identicalRows++
			break
		}
	}

	var best []int
	bestSER, prev := math.Inf(1), math.NaN()
	last := make([]int, len(slow))
	for _, d := range cands {
		if d == prev {
			st.dupCands++
			continue
		}
		prev = d
		st.negInf += btoi(math.IsInf(d, -1))
		steps := refAssembleSteps(slow, limits, d)
		for i, s := range steps {
			if s != last[i] && slow[i][s] > d && !slices.Contains(slow[i], d) {
				st.guardOthers++
			}
		}
		last = steps
		e := refFixedLatency(ev, steps, memStep, latency)
		if !withinRef(e, refTPI, limits) {
			continue
		}
		ser := serAgainst(&ev.baseline, e)
		if ser == bestSER {
			st.serTies++
		}
		if ser < bestSER {
			bestSER, best = ser, steps
		}
	}
	if best == nil {
		return make([]int, len(refTPI)), bestSER, false
	}
	return best, bestSER, true
}

// sameFloats reports whether a and b hold the same bits.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sweepCase draws a random observation and sweep inputs. Cores get MLP
// below, at and above 1 and sometimes Beta 0; some cases repeat one core's
// statistics (candidate values equal across cores, or closer than the
// 1e-12 guard), some zero CPIBase
// (a row of equal slowdowns), some pin limits a hair below a reachable
// slowdown (the 1e-12 guard decides), some cap every core below 1
// (nothing is feasible), and some give cores a negative CPIBase (TPI that
// falls down the ladder, to below zero) or no work at all (a zero TPI, so
// a zero baseline).
func sweepCase(rng *trace.Rand, cfg Config) (obs Observation, memStep int, latency float64, limits []float64, kind int) {
	n := cfg.NCores
	kind = int(rng.Uint64() % 6)
	obs = Observation{Window: 300e-6, CoreSteps: ZeroSteps(n), Cores: make([]CoreObs, n),
		MemRate: 1e8 + rng.Float64()*3e8, MemLatency: 50e-9 + rng.Float64()*100e-9,
		UtilBus: rng.Float64() * 0.8, BusyFrac: rng.Float64()}
	for i := range obs.Cores {
		beta := rng.Float64() * 0.02
		if rng.Uint64()%4 == 0 {
			beta = 0
		}
		st := perf.CoreStats{CPIBase: 0.5 + rng.Float64()*1.5, Alpha: rng.Float64() * 0.03,
			StallL2: 7.5e-9, Beta: beta, MemPerInstr: beta * (1 + rng.Float64()), MLP: 0.5 + rng.Float64()*3}
		if kind == 1 && i%3 == 2 {
			st.CPIBase = 0
		}
		if kind == 5 && i%3 == 1 {
			st.CPIBase = -0.5 - rng.Float64()
		}
		if kind == 5 && i%3 == 2 {
			st = perf.CoreStats{StallL2: st.StallL2, MLP: st.MLP}
		}
		obs.Cores[i] = CoreObs{Instructions: 1_000_000, Stats: st, L2PerInstr: rng.Float64() * 0.05,
			Mix: trace.InstrMix{ALU: rng.Float64() * 0.4, FPU: rng.Float64() * 0.3, Branch: 0.1, LoadStore: 0.3},
			IPS: 2e9}
		if kind == 0 && i > 0 {
			// Copies of core 0, exact or a few ulps-scale apart: candidate
			// values tie, or differ by less than the 1e-12 guard.
			obs.Cores[i] = obs.Cores[0]
			obs.Cores[i].Stats.CPIBase *= 1 + float64(rng.Uint64()%3)*2e-13
		}
	}
	memStep = int(rng.Uint64() % uint64(cfg.MemLadder.Steps()))
	latency = 40e-9 + rng.Float64()*160e-9
	limits = make([]float64, n)
	for i := range limits {
		limits[i] = 1 + rng.Float64()*0.4
		if rng.Uint64()%8 == 0 {
			limits[i] = math.Inf(1)
		}
		if kind == 4 {
			limits[i] = 0.5 + rng.Float64()*0.4
		}
	}
	return obs, memStep, latency, limits, kind
}

// TestCoreSweepMatchesReference holds the table-backed sweep to the direct
// per-candidate evaluation on randomized observations: the same winning
// steps, the same SER bits and the same found/not-found outcome, with
// slowdowns measured against the all-max baseline (CPUOnly,
// Semi-coordinated, Offline) and against a cores-at-max, memory-as-is
// reference (the Uncoordinated CPU manager's cpuRef).
func TestCoreSweepMatchesReference(t *testing.T) {
	rng := trace.NewRand(18)
	var st refSweepStats
	var infeasible, foreignRef, guardCases, noRef, noBase, unsorted int
	var w coreSweep
	var tab Evaluator
	for c := 0; c < 600; c++ {
		n := []int{1, 2, 3, 7, 16, 24}[c%6]
		cfg := testCfg(n)
		obs, memStep, latency, limits, kind := sweepCase(rng, cfg)
		direct := newDirectEvaluator(cfg, obs)
		tab.Reset(cfg, obs)

		refTPI := direct.Baseline().TPI
		if c%2 == 1 {
			// The Uncoordinated CPU manager's reference and latency.
			cpuRef := direct.Evaluate(ZeroSteps(n), memStep)
			refTPI, latency = cpuRef.TPI, cpuRef.MemLoad.Latency
			foreignRef++
		}
		if kind == 2 {
			// A foreign reference under which every core's slowdown at one
			// step lands within the 1e-12 guard of core 0's.
			refTPI = slices.Clone(refTPI)
			s := int(rng.Uint64() % uint64(cfg.CoreLadder.Steps()))
			hz := cfg.CoreLadder.Hz(s)
			v0 := direct.stats[0].TPI(hz, latency) / refTPI[0]
			for i := 1; i < n; i++ {
				refTPI[i] = direct.stats[i].TPI(hz, latency) / (v0 * (1 + float64(rng.Uint64()%4)*2e-13))
			}
		}
		if kind == 3 {
			// Each limit a hair below a reachable slowdown, so only the
			// 1e-12 guard admits that step.
			for i := range limits {
				s := int(rng.Uint64() % uint64(cfg.CoreLadder.Steps()))
				limits[i] = direct.stats[i].TPI(cfg.CoreLadder.Hz(s), latency) / refTPI[i] * (1 - 4e-13)
			}
			guardCases++
		}
		if kind == 5 && n > 4 {
			refTPI = slices.Clone(refTPI)
			refTPI[3] = -refTPI[3] // a negative reference
			refTPI[4] = 0          // a zero reference on a negative-CPIBase core: -Inf slowdowns
		}
		for i := range refTPI {
			noRef += btoi(refTPI[i] <= 0)
			noBase += btoi(direct.Baseline().TPI[i] <= 0)
			unsorted += btoi(!slowdownsAscend(direct, i, latency, refTPI[i]))
		}

		wantSteps, wantSER, wantFound := refCoreSweep(direct, memStep, latency, refTPI, limits, &st)
		gotFound := w.run(&tab, memStep, latency, refTPI, limits)
		if gotFound != wantFound || !slices.Equal(w.best, wantSteps) ||
			math.Float64bits(w.ser) != math.Float64bits(wantSER) {
			t.Fatalf("case %d (n=%d kind=%d): sweep = %v ser %v found %v, reference = %v ser %v found %v",
				c, n, kind, w.best, w.ser, gotFound, wantSteps, wantSER, wantFound)
		}
		if !wantFound {
			infeasible++
		}
	}
	// Every path the reference can take, and every input class the sweep's
	// shortcuts must survive, must have been exercised.
	if infeasible == 0 || foreignRef == 0 || guardCases == 0 || st.dupCands == 0 || st.serTies == 0 ||
		st.guardOthers == 0 || st.identicalRows == 0 || noRef == 0 || noBase == 0 || unsorted == 0 || st.negInf == 0 {
		t.Errorf("coverage: infeasible %d, foreign reference %d, guard %d, duplicate candidates %d, SER ties %d, "+
			"guard advancing another core %d, identical rows %d, reference <= 0 %d, baseline <= 0 %d, rows out of order %d, "+
			"-Inf thresholds %d",
			infeasible, foreignRef, guardCases, st.dupCands, st.serTies, st.guardOthers, st.identicalRows,
			noRef, noBase, unsorted, st.negInf)
	}
}

// slowdownsAscend reports whether core i's slowdowns against ref never
// fall down the ladder, so that the row yields its thresholds in order and
// the sweep's per-row sort has nothing to do.
func slowdownsAscend(ev *directEvaluator, i int, latency, ref float64) bool {
	for s := 1; s < ev.Cfg.CoreLadder.Steps(); s++ {
		if !(ev.stats[i].TPI(ev.Cfg.CoreLadder.Hz(s), latency)/ref >= ev.stats[i].TPI(ev.Cfg.CoreLadder.Hz(s-1), latency)/ref) {
			return false
		}
	}
	return true
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBaselinePoliciesInfeasibleFallback pins what the CPU-side policies
// do when no core combination fits the limits: CPUOnly keeps every core at
// maximum frequency and Offline skips the memory step, keeping the all-max
// decision when no step fits.
func TestBaselinePoliciesInfeasibleFallback(t *testing.T) {
	cfg := testCfg(4)
	cfg.Gamma = 0
	cfg.Reserve = 1 // a second of withheld slack: every limit clamps to 1
	obs := synthObs(cfg, memoryStats())
	// Profiled at a slower memory step: even all-max cores would run over
	// the all-max reference at the observed latency.
	obs.MemStep, obs.CoreSteps, obs.MemLatency = 2, []int{3, 3, 3, 3}, 4*obs.MemLatency
	cpu := must(NewCPUOnly(cfg)).Decide(obs)
	off := must(NewOffline(cfg)).Decide(obs)
	for name, d := range map[string]Decision{"CPUOnly": cpu, "Offline": off} {
		for i, s := range d.CoreSteps {
			if s != 0 {
				t.Errorf("%s moved core %d to step %d with no feasible combination", name, i, s)
			}
		}
	}
	if off.MemStep != 0 {
		t.Errorf("Offline chose memory step %d with no feasible combination", off.MemStep)
	}
}
