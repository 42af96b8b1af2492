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
// every candidate exactly once on the memoized-table path (bit-identical
// to the direct path, DESIGN.md §10). PowerCap stops the walk at the first
// point under its cap; the frontier builder runs it to the ladder floor and
// records every point it visits.
//
// The walk owns its evaluator and scratch, so it allocates nothing once
// warm. A zero CapWalk is ready for Reset.
type CapWalk struct {
	ev     policy.Evaluator
	eval   policy.Eval // candidate prediction scratch
	scaled []float64   // per-core scaled slowdown limits; nil: unlimited
	steps  []int       // the current point's core steps
	mem    int         // the current point's memory step
	watts  float64     // the current point's predicted total power
	slow   float64     // the current point's predicted worst slowdown
	cands  []capCand   // the current move's candidates, evaluated once
}

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
// point. scaled, when non-nil, holds per-core slowdown limits with the
// WithinBound epsilon applied (policy.ScaleLimits); Step prefers moves that
// keep every core inside them and reads the slice without copying it.
//
//hot:path
func (w *CapWalk) Reset(cfg policy.Config, obs policy.Observation, scaled []float64) {
	w.ev.UseTables = true
	w.ev.Reset(cfg, obs)
	w.scaled = scaled
	w.steps = perf.ResizeInts(w.steps, cfg.NCores)
	w.mem = 0
	// The all-max point is the baseline Reset already solved.
	base := w.ev.Baseline()
	w.watts, w.slow = base.Power.Total, base.MaxSlow
}

// Point returns the walk's current operating point. The slice aliases the
// walk's state: callers must not mutate it, and the next Step or Reset
// changes it.
func (w *CapWalk) Point() (coreSteps []int, memStep int) { return w.steps, w.mem }

// Predicted returns the current point's predicted total power and worst
// per-core slowdown.
func (w *CapWalk) Predicted() (watts, maxSlow float64) { return w.watts, w.slow }

// Evaluate predicts the total power and worst slowdown of any operating
// point of the walk's observation, leaving the walk where it stands.
//
//hot:path
func (w *CapWalk) Evaluate(coreSteps []int, memStep int) (watts, maxSlow float64) {
	w.ev.EvaluateInto(&w.eval, coreSteps, memStep)
	return w.eval.Power.Total, w.eval.MaxSlow
}

// Step moves to the single-step-down candidate with the highest utility
// and reports whether there was one: false once every ladder is at its
// bottom, so a walk ends after at most one Step per ladder step. Moves
// inside the limits are preferred; when none is, the choice falls back to
// every candidate, because shedding watts takes precedence over the SLO.
// Candidate order is fixed (memory first, then cores ascending) and the
// first of equal utilities wins.
//
//hot:path
func (w *CapWalk) Step() bool {
	cfg := &w.ev.Cfg
	w.cands = w.cands[:0]
	if !cfg.MemLadder.Bottom(w.mem) {
		w.score(-1, w.mem+1)
	}
	for i, s := range w.steps {
		if cfg.CoreLadder.Bottom(s) {
			continue
		}
		w.steps[i]++
		w.score(i, w.mem)
		w.steps[i]--
	}
	k := w.pick(true)
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
	w.watts, w.slow = c.power, c.slow
	return true
}

// score evaluates w.steps at memory step mem and records the candidate.
//
//hot:path
func (w *CapWalk) score(core, mem int) {
	w.ev.EvaluateInto(&w.eval, w.steps, mem)
	w.cands = append(w.cands, capCand{
		core:   core,
		power:  w.eval.Power.Total,
		slow:   w.eval.MaxSlow,
		u:      Utility(w.watts-w.eval.Power.Total, w.eval.MaxSlow-w.slow),
		within: w.scaled == nil || policy.WithinBoundScaled(w.eval, w.scaled),
	})
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
