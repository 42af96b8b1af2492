package policy

import (
	"math"
	"slices"
)

// refOfflineStats counts what a reference Offline decision saw: its sweeps,
// those in which some core had no step within its limit (which find
// nothing), the second rounds whose sweep repeated the first round's
// vector, and the decisions whose solved step-0 all-max point had the
// baseline's latency bits.
type refOfflineStats struct{ Sweeps, NoInLimit, Repeats, BaselineSolves int }

// refOffline is the direct form of Offline.Decide: every memory step's
// all-max point solved, both latency rounds swept with refCoreSweep, and
// every sweep winner verified with the joint model, on a direct evaluator.
func refOffline(cfg Config, obs Observation, limits []float64, st *refOfflineStats) Decision {
	ev := newDirectEvaluator(cfg, obs)
	base := ev.Baseline()
	best := Decision{CoreSteps: ZeroSteps(cfg.NCores)}
	bestSER := base.SER
	var sweepStats refSweepStats
	for m := 0; m < cfg.MemLadder.Steps(); m++ {
		e := ev.Evaluate(ZeroSteps(cfg.NCores), m)
		if m == 0 && math.Float64bits(e.MemLoad.Latency) == math.Float64bits(base.MemLoad.Latency) {
			st.BaselineSolves++
		}
		latency, memSER, found := e.MemLoad.Latency, 0.0, false
		var first, memBest []int
		for round := 0; round < 2; round++ {
			st.Sweeps++
			for i := range obs.Cores {
				if !refHasInLimitStep(ev, i, latency, base.TPI[i], limits[i]) {
					st.NoInLimit++
					break
				}
			}
			steps, _, ok := refCoreSweep(ev, m, latency, base.TPI, limits, &sweepStats)
			if !ok {
				break
			}
			if round == 1 && slices.Equal(steps, first) {
				st.Repeats++
			}
			first = steps
			v := ev.Evaluate(steps, m)
			latency = v.MemLoad.Latency
			if WithinBound(v, limits) && (!found || v.SER < memSER) {
				memSER, found, memBest = v.SER, true, steps
			}
		}
		if found && memSER < bestSER {
			bestSER, best = memSER, Decision{CoreSteps: memBest, MemStep: m}
		}
	}
	return best
}

// refHasInLimitStep reports whether some step of core i is within its
// limit at the given latency: a zero or negative reference admits every
// step, as WithinBound does.
func refHasInLimitStep(ev *directEvaluator, i int, latency, ref, limit float64) bool {
	for s := 0; s < ev.Cfg.CoreLadder.Steps(); s++ {
		if ref <= 0 || !(ev.stats[i].TPI(ev.Cfg.CoreLadder.Hz(s), latency)/ref > limit*(1+1e-12)) {
			return true
		}
	}
	return false
}
