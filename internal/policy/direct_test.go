package policy

import (
	"math"

	"coscale/internal/perf"
	"coscale/internal/power"
)

// directEvaluator is the direct per-call form of the predictions Evaluator
// memoizes: every evaluation derives each core's frequency and voltage from
// the ladders again, solves the §3.3 model (Eq. 1) with perf.Solver.SolveInto
// and sums the Eq. 3 power model core by core. It reads no table: it solves
// its own all-max baseline at the Evaluator's Tol and MaxIter. It is the
// reference the table-path oracles hold Evaluator to
// (TestTablesBitIdenticalToDirect, TestCoreSweepMatchesReference through
// refCoreSweep, TestOfflineMatchesReference through refOffline, and the
// slack tests' reference ledgers).
type directEvaluator struct {
	Cfg        Config
	stats      []perf.CoreStats
	obs        Observation
	busyPerReq float64 // measured rank-busy time per request, for power prediction
	baseline   Eval    // all components at maximum frequency
	solver     perf.Solver
}

func newDirectEvaluator(cfg Config, obs Observation) *directEvaluator {
	ev := &directEvaluator{Cfg: cfg, obs: obs, solver: perf.Solver{Mem: cfg.Mem, Tol: 1e-6, MaxIter: 25}}
	ev.stats = make([]perf.CoreStats, len(obs.Cores))
	for i := range obs.Cores {
		ev.stats[i] = obs.Cores[i].Stats
	}
	if obs.MemRate > 0 {
		ev.busyPerReq = obs.BusyFrac / obs.MemRate
	}
	// The baseline is its own reference: finish divides each TPI by itself.
	ev.evaluateInto(&ev.baseline, ZeroSteps(len(obs.Cores)), 0)
	ev.baseline.SER = 1
	return ev
}

// Baseline returns the all-max evaluation (the SER denominator).
func (ev *directEvaluator) Baseline() Eval { return ev.baseline }

// Evaluate predicts the outcome of running with the given per-core and
// memory steps.
func (ev *directEvaluator) Evaluate(coreSteps []int, memStep int) Eval {
	var e Eval
	ev.evaluateInto(&e, coreSteps, memStep)
	e.SER = power.SER(e.MaxSlow, e.Power.Total, ev.baseline.MaxSlow, ev.baseline.Power.Total)
	return e
}

// evaluateInto runs the joint model and fills dst with everything but SER.
func (ev *directEvaluator) evaluateInto(dst *Eval, coreSteps []int, memStep int) {
	hz := ev.coreHz(coreSteps)
	var res perf.Result
	ev.solver.SolveInto(&res, ev.stats, hz, ev.Cfg.MemLadder.Hz(memStep))
	dst.TPI = res.TPI
	dst.Slowdown = make([]float64, len(res.TPI))
	dst.MemLoad = res.Mem
	ev.finish(dst, coreSteps, hz, memStep, res.MemRate)
}

// coreHz returns each core's frequency at its step.
func (ev *directEvaluator) coreHz(coreSteps []int) []float64 {
	hz := make([]float64, len(coreSteps))
	for i, s := range coreSteps {
		hz[i] = ev.Cfg.CoreLadder.Hz(s)
	}
	return hz
}

// finish fills slowdowns and predicted power for an Eval whose TPI and
// MemLoad are already set; hz[i] is CoreLadder.Hz(coreSteps[i]).
func (ev *directEvaluator) finish(e *Eval, coreSteps []int, hz []float64, memStep int, memRate float64) {
	e.MaxSlow = 0
	for i := range e.Slowdown {
		if len(ev.baseline.TPI) == len(e.TPI) && ev.baseline.TPI[i] > 0 {
			e.Slowdown[i] = e.TPI[i] / ev.baseline.TPI[i]
		} else {
			e.Slowdown[i] = 1
		}
		if e.Slowdown[i] > e.MaxSlow {
			e.MaxSlow = e.Slowdown[i]
		}
	}
	if e.MaxSlow <= 0 {
		e.MaxSlow = 1
	}

	cores := make([]power.CoreOp, len(e.TPI))
	l2Rate := 0.0
	for i, tpi := range e.TPI {
		ips := 0.0
		if tpi > 0 && !math.IsInf(tpi, 0) {
			ips = 1 / tpi
		}
		cores[i] = power.CoreOp{
			Volts: ev.Cfg.CoreLadder.Volts(coreSteps[i]),
			Hz:    hz[i],
			IPS:   ips,
			Mix:   ev.obs.Cores[i].Mix,
		}
		l2Rate += ips * ev.obs.Cores[i].L2PerInstr
	}
	busy := ev.busyPerReq * memRate
	if busy > 1 {
		busy = 1
	}
	// Split traffic into reads and writes in the observed proportion; the
	// energy model treats them symmetrically anyway.
	u := power.MemUsage{
		BusHz:     ev.Cfg.MemLadder.Hz(memStep),
		MCVolts:   ev.Cfg.MemLadder.Volts(memStep),
		ReadRate:  memRate * 0.8,
		WriteRate: memRate * 0.2,
		ActRate:   memRate,
		UtilBus:   e.MemLoad.UtilBus,
		BusyFrac:  busy,
	}
	e.Power = ev.Cfg.Power.Total(cores, l2Rate, u)
}
