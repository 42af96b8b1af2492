package policy

import (
	"math"

	"coscale/internal/perf"
	"coscale/internal/power"
)

// searcher is the decision state each §3.2 comparison policy owns: one
// table-backed evaluator re-pointed at every observation (DESIGN.md §10),
// the slack book, the fixed-latency core sweep and the scratch buffers a
// decision needs, so that Decide and Observe allocate nothing in steady
// state. Decisions alias the scratch and are valid until the next Decide.
type searcher struct {
	cfg   Config
	slack *SlackBook
	ev    Evaluator
	sweep coreSweep

	e, ref Eval
	steps  []int
}

func newSearcher(cfg Config) (searcher, error) {
	if err := cfg.Validate(); err != nil {
		return searcher{}, err
	}
	return searcher{cfg: cfg, slack: NewSlackBook(cfg)}, nil
}

// begin re-points the evaluator at obs and returns the per-core slowdown
// limits the scheduled threads' slack allows (valid until the next begin).
func (s *searcher) begin(obs Observation) []float64 {
	s.ev.Reset(s.cfg, obs)
	return s.slack.Limits(obs)
}

// Observe implements Policy for the slack-keeping baselines: end-of-epoch
// slack accounting against the joint all-max reference (SlackBook.Observe).
func (s *searcher) Observe(epoch Observation) { s.slack.Observe(epoch) }

// keep copies steps into the decision scratch (the engine reuses the
// observation's buffers, so a decision may not alias them).
func (s *searcher) keep(steps []int) []int {
	s.steps = append(s.steps[:0], steps...)
	return s.steps
}

// memSearch exhaustively evaluates memory steps with cores pinned at
// coreSteps, returning the step with the lowest SER whose predicted
// slowdowns (measured against refTPI) stay within limits, or step 0 when
// none is feasible.
func (s *searcher) memSearch(coreSteps []int, refTPI, limits []float64) int {
	bestStep, bestSER := 0, math.Inf(1)
	for m := 0; m < s.cfg.MemLadder.Steps(); m++ {
		s.ev.EvaluateInto(&s.e, coreSteps, m)
		if !withinRef(s.e, refTPI, limits) {
			continue
		}
		if ser := serAgainst(&s.ev.baseline, s.e); ser < bestSER {
			bestSER, bestStep = ser, m
		}
	}
	return bestStep
}

// withinRef checks per-core TPI against limits relative to refTPI (which may
// differ from the evaluator's all-max baseline for the Uncoordinated
// managers).
func withinRef(e Eval, refTPI, limits []float64) bool {
	for i, tpi := range e.TPI {
		if refTPI[i] <= 0 {
			continue
		}
		if tpi/refTPI[i] > limits[i]*(1+1e-12) {
			return false
		}
	}
	return true
}

// serAgainst computes the SER of e against the all-max baseline b.
func serAgainst(b *Eval, e Eval) float64 {
	t := 0.0
	for i, tpi := range e.TPI {
		if b.TPI[i] > 0 {
			if r := tpi / b.TPI[i]; r > t {
				t = r
			}
		}
	}
	if t <= 0 {
		t = 1
	}
	return t * e.Power.Total / b.Power.Total
}

// coreSweep is the exact CPU-side search of §3.2 that CPUOnly, the
// Uncoordinated and Semi-coordinated CPU managers and Offline share. With
// memory latency held fixed each core's TPI is independent of the other
// cores' frequencies, so searching "all possible combinations of core
// frequencies" reduces to sweeping the worst-allowed slowdown d over every
// per-core step boundary, letting each core take its lowest frequency whose
// slowdown stays within min(d, limit), and keeping the feasible candidate
// with the lowest SER. DESIGN.md §4 argues why each shortcut below is exact.
//
// Every per-(core, step) term a score needs is computed once per sweep. A
// candidate's score sums its cores' terms in core order, the order the full
// fixed-latency model sums them in, so it has the same bits as evaluating
// the candidate with that model and taking its SER against the baseline.
type coreSweep struct {
	terms      []sweepTerm // [core*steps + step]
	cands, tmp []sweepCand // the thresholds d, ascending; one core's run, to merge in
	pick       []int       // each core's step at the current d
	best       []int       // the winning candidate; all zeros when none is feasible
	ser        float64     // best's SER against the baseline (+Inf when none is feasible)
}

// sweepTerm is one core's contribution at one step and the sweep's latency;
// only an in-limit step, the only kind ever scored, has more than ok set.
type sweepTerm struct {
	ratio float64 // TPI / baseline TPI, the SER time factor (0 without a baseline)
	cpu   float64 // core power
	l2    float64 // L2 accesses per second
	rate  float64 // memory requests per second
	ok    bool    // within the core's limit against refTPI
}

// sweepCand is a threshold: a core's in-limit slowdown at a step, or 1.
type sweepCand struct {
	d          float64
	core, step int32
}

// run sweeps memory step m at a fixed memory latency, with slowdowns
// measured against refTPI and bounded by limits. It reports whether any
// candidate was feasible; the winner is left in best.
//
//hot:path
func (w *coreSweep) run(ev *Evaluator, m int, latency float64, refTPI, limits []float64) bool {
	n, steps := len(refTPI), ev.Cfg.CoreLadder.Steps()
	tbl, ptbl := ev.Tables()
	fixed, base := tbl.FixedCols(), ev.baseline.TPI
	w.terms = perf.Grow(w.terms, n*steps)
	w.pick = perf.Resize(w.pick, n)
	w.best = perf.Resize(w.best, n)
	w.ser = math.Inf(1)
	w.cands = append(w.cands[:0], sweepCand{1, -1, 0})
	for i, inLimit := 0, false; i < n; i++ {
		lim := limits[i] * (1 + 1e-12)
		mpi, l2pi, blat := ev.stats[i].MemPerInstr, ev.obs.Cores[i].L2PerInstr, tbl.LatencyTerm(i, latency)
		row := w.terms[i*steps : i*steps+steps]
		w.tmp, inLimit = w.tmp[:0], false
		for s := 0; s < steps; s++ {
			t := &row[s]
			tpi := fixed[s*n+i] + blat
			slow := tpi / refTPI[i]
			if slow <= lim {
				w.tmp = append(w.tmp, sweepCand{slow, int32(i), int32(s)})
			}
			if t.ok = refTPI[i] <= 0 || !(slow > lim); !t.ok {
				continue
			}
			inLimit = true
			t.ratio = 0
			if base[i] > 0 {
				t.ratio = tpi / base[i]
			}
			ips := 0.0
			t.rate = 0
			if tpi > 0 && !math.IsInf(tpi, 0) {
				ips = 1 / tpi
				t.rate = mpi / tpi
			}
			t.cpu = ptbl.PowerAt(s, i, ips)
			t.l2 = ips * l2pi
		}
		if !inLimit {
			return false // every candidate puts this core over its limit
		}
		// Sort the core's run (one pass when its slowdown ascends down the
		// ladder) and merge it into the thresholds from the back.
		for a := 1; a < len(w.tmp); a++ {
			for b := a; b > 0 && w.tmp[b].d < w.tmp[b-1].d; b-- {
				w.tmp[b], w.tmp[b-1] = w.tmp[b-1], w.tmp[b]
			}
		}
		a := len(w.cands) - 1
		w.cands = append(w.cands, w.tmp...)
		for b, k := len(w.tmp)-1, len(w.cands)-1; b >= 0; k-- {
			if a >= 0 && w.tmp[b].d < w.cands[a].d {
				w.cands[k], a = w.cands[a], a-1
			} else {
				w.cands[k], b = w.tmp[b], b-1
			}
		}
	}

	u := power.MemUsage{BusHz: ev.Cfg.MemLadder.Hz(m), MCVolts: ev.Cfg.MemLadder.Volts(m), UtilBus: ev.obs.UtilBus}
	at := ev.Cfg.Power.Mem.At(u.BusHz, u.MCVolts, u.UtilBus)
	k, moved := 0, true
	for j := 0; j < len(w.cands); {
		// Each core takes the largest step among its candidates within the
		// guarded d. The guarded d never falls, so one cursor visits each
		// candidate once, at the first threshold whose guard reaches it.
		d := w.cands[j].d
		for dx := d * (1 + 1e-12); k < len(w.cands) && w.cands[k].d <= dx; k++ {
			if c := w.cands[k]; c.core >= 0 && int(c.step) > w.pick[c.core] {
				w.pick[c.core], moved = int(c.step), true
			}
		}
		//lint:ignore floateq exact dedup of sorted candidates; a tolerance would merge distinct settings
		for j++; j < len(w.cands) && w.cands[j].d == d; j++ {
		}
		if !moved {
			continue // same candidate as the last scored one
		}
		moved = false
		cpu, l2, rate, t := 0.0, 0.0, 0.0, 0.0
		feasible := true
		for i, p := range w.pick {
			tm := &w.terms[i*steps+p]
			if !tm.ok {
				feasible = false
				break
			}
			cpu += tm.cpu
			l2 += tm.l2
			rate += tm.rate
			if tm.ratio > t {
				t = tm.ratio
			}
		}
		if !feasible {
			continue
		}
		if t <= 0 {
			t = 1
		}
		busy := ev.busyPerReq * rate
		if busy > 1 {
			busy = 1
		}
		u.ReadRate, u.WriteRate, u.ActRate, u.BusyFrac = rate*0.8, rate*0.2, rate, busy
		if ser := t * ev.Cfg.Power.TotalAt(at, cpu, l2, u) / ev.baseline.Power.Total; ser < w.ser {
			w.ser = ser
			copy(w.best, w.pick)
		}
	}
	return !math.IsInf(w.ser, 1)
}
