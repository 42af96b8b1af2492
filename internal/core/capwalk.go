package core

import (
	"math"

	"coscale/internal/perf"
	"coscale/internal/policy"
)

// CapWalk is the capped marginal-utility walk that PowerCap and the fastcap
// frontier builder share. From the all-max point each Step takes the
// single-step-down move — one memory step, or one step on one core — that
// sheds the most power per unit of worst slowdown (Utility), evaluating
// each candidate at most once on the memoized tables (DESIGN.md §10). The
// walk records every point it visits in its Trail: PowerCap decides on the
// first trail point under its cap, and the frontier builder runs the walk
// to the ladder floor and filters the whole trail.
//
// The walk owns its evaluator and scratch, so it allocates nothing once
// warm. A zero CapWalk is ready for Reset.
type CapWalk struct {
	ev     policy.Evaluator
	eval   policy.Eval // candidate prediction scratch
	scaled []float64   // per-core scaled slowdown limits; nil: unlimited
	steps  []int       // the current point's core steps
	mem    int         // the current point's memory step
	cands  []capCand   // the current move's candidates, evaluated once
	trail  Trail       // every point visited since Reset
	evals  int64       // points evaluated since the walk was made
}

// Trail is the sequence of points a CapWalk has visited since its last
// Reset, in visit order: point 0 is the all-max point, the last point is
// the walk's current one.
type Trail struct {
	Watts []float64 // predicted total power per point
	Slow  []float64 // predicted worst per-core slowdown per point
	Mems  []int     // memory ladder step per point
	steps []int     // core ladder steps, n per point
	n     int
}

// Len returns the number of points on the trail.
func (t *Trail) Len() int { return len(t.Watts) }

// Steps returns point i's core ladder steps. The slice aliases the trail:
// callers must not mutate it, and the next Reset reuses it.
func (t *Trail) Steps(i int) []int { return t.steps[i*t.n : (i+1)*t.n] }

// capCand is one single-step-down candidate move: what the walk reads of
// its prediction, its utility against the current point and whether it
// keeps every core inside the walk's limits.
type capCand struct {
	core   int // core stepped down; -1 is the memory move
	power  float64
	slow   float64
	u      float64
	within bool
}

// Reset points the walk at obs under cfg and places it at the all-max
// point, the trail's first. scaled, when non-nil, holds per-core slowdown
// limits with the WithinBound epsilon applied (policy.ScaleLimits); Step
// prefers moves that keep every core inside them and reads the slice
// without copying it.
//
//hot:path
func (w *CapWalk) Reset(cfg policy.Config, obs policy.Observation, scaled []float64) {
	w.ev.Reset(cfg, obs)
	w.scaled = scaled
	w.steps = perf.Resize(w.steps, cfg.NCores)
	w.mem = 0
	t := &w.trail
	t.Watts, t.Slow, t.Mems, t.steps, t.n = t.Watts[:0], t.Slow[:0], t.Mems[:0], t.steps[:0], cfg.NCores
	// The all-max point is the baseline Reset already solved.
	base := w.ev.Baseline()
	w.record(base.Power.Total, base.MaxSlow)
}

// Trail returns the points the walk has visited since Reset. It aliases
// the walk's storage, which Step extends and Reset reuses.
func (w *CapWalk) Trail() *Trail { return &w.trail }

// Evals returns how many operating points the walk has evaluated (Step's
// candidates and Evaluate's points) since it was made.
func (w *CapWalk) Evals() int64 { return w.evals }

// Evaluate predicts the total power and worst slowdown of any operating
// point of the walk's observation, leaving the walk where it stands.
//
//hot:path
func (w *CapWalk) Evaluate(coreSteps []int, memStep int) (watts, maxSlow float64) {
	w.evals++
	w.ev.EvaluateInto(&w.eval, coreSteps, memStep)
	return w.eval.Power.Total, w.eval.MaxSlow
}

// Step moves to the single-step-down candidate with the highest utility
// and reports whether there was one: false once every ladder is at its
// bottom, so a walk ends after at most one Step per ladder step. Moves
// inside the limits are preferred; when none is, the choice falls back to
// every candidate, because shedding watts takes precedence over the SLO.
// Candidate order is fixed (memory first, then cores ascending) and the
// first of equal utilities wins, so the first free move (+Inf utility)
// inside the limits wins outright: Step takes it without evaluating the
// candidates after it.
//
//hot:path
func (w *CapWalk) Step() bool {
	cfg := &w.ev.Cfg
	last := len(w.trail.Watts) - 1
	watts, slow := w.trail.Watts[last], w.trail.Slow[last]
	w.cands = w.cands[:0]
	k := -1
	if !cfg.MemLadder.Bottom(w.mem) && w.score(-1, w.mem+1, watts, slow) {
		k = 0
	}
	for i := 0; k < 0 && i < len(w.steps); i++ {
		if cfg.CoreLadder.Bottom(w.steps[i]) {
			continue
		}
		w.steps[i]++
		if w.score(i, w.mem, watts, slow) {
			k = len(w.cands) - 1
		}
		w.steps[i]--
	}
	if k < 0 {
		k = w.pick(true)
	}
	if k < 0 {
		k = w.pick(false)
	}
	if k < 0 {
		return false
	}
	c := w.cands[k]
	if c.core < 0 {
		w.mem++
	} else {
		w.steps[c.core]++
	}
	w.record(c.power, c.slow)
	return true
}

// record appends the walk's current point.
//
//hot:path
func (w *CapWalk) record(watts, slow float64) {
	t := &w.trail
	t.Watts = append(t.Watts, watts)
	t.Slow = append(t.Slow, slow)
	t.Mems = append(t.Mems, w.mem)
	t.steps = append(t.steps, w.steps...)
}

// score evaluates w.steps at memory step mem against the current point's
// watts and slowdown, records the candidate and reports whether it is a
// free move inside the limits.
//
//hot:path
func (w *CapWalk) score(core, mem int, watts, slow float64) bool {
	w.evals++
	w.ev.EvaluateInto(&w.eval, w.steps, mem)
	c := capCand{
		core:   core,
		power:  w.eval.Power.Total,
		slow:   w.eval.MaxSlow,
		u:      Utility(watts-w.eval.Power.Total, w.eval.MaxSlow-slow),
		within: w.scaled == nil || policy.WithinBoundScaled(w.eval, w.scaled),
	}
	w.cands = append(w.cands, c)
	return c.within && math.IsInf(c.u, 1)
}

// pick returns the index of the highest-utility candidate (within the
// limits only, when withinOnly is set), or -1 if there is none.
//
//hot:path
func (w *CapWalk) pick(withinOnly bool) int {
	best, bestU := -1, math.Inf(-1)
	for k, c := range w.cands {
		if withinOnly && !c.within {
			continue
		}
		if c.u > bestU {
			best, bestU = k, c.u
		}
	}
	return best
}
