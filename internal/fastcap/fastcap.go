// Package fastcap allocates a global power budget across the nodes of a
// simulated fleet — the FastCap direction (Liu, Cox, Deng, Draper,
// Bianchini; PAPERS.md): efficient *and fair* power capping, promoted from
// the single-node core.PowerCap controller to a datacenter-scale problem.
//
// Each node is summarized by a power/performance Frontier: the Pareto menu
// of (watts, worst slowdown) operating points a PowerCap-style
// marginal-utility walk visits between all-max and all-min frequencies,
// built over the node's evaluator (and, through policy.Config.Tables, the
// shared per-platform table cache — one platform-column build per process
// for the whole fleet). The Allocator then splits the budget over those
// menus: Fair runs max-min water-filling over normalized slowdown —
// repeatedly buying the next frontier step for whichever node is currently
// worst off — Greedy spends each watt where it buys the most slowdown
// reduction anywhere in the fleet, and Uniform is the static budget/N
// reference split. The Rebalancer ties the pieces into the epoch loop:
// rebuild frontiers as workload mixes shift, reallocate, then run each
// node's core.PowerCap against its assigned slice.
//
// Determinism is load-bearing (the package is in the determinism lint
// scope): identical inputs produce Float64bits-identical assignments
// regardless of node input order — all budget arithmetic and all
// worst-node selections run in sorted-node-ID order — and the steady-state
// Allocate path is allocation-free, like the rest of the hot path.
package fastcap

import (
	"fmt"
	"math"

	"coscale/internal/core"
	"coscale/internal/perf"
	"coscale/internal/policy"
)

// Frontier is one node's Pareto power/performance menu. Points are ordered
// by strictly increasing watts and strictly decreasing worst slowdown:
// point 0 is the all-minimum-frequency floor (cheapest, slowest), the last
// point is the cheapest configuration reaching the node's best slowdown
// (≈1, the all-max performance). Build one with a Builder.
type Frontier struct {
	Watts []float64 // predicted full-system power per point, ascending
	Slow  []float64 // predicted worst per-core slowdown per point, non-increasing

	steps [][]int // per-point core ladder steps
	mems  []int   // per-point memory ladder step
}

// Len returns the number of frontier points.
func (f *Frontier) Len() int { return len(f.Watts) }

// MinWatts returns the power of the all-minimum-frequency floor.
func (f *Frontier) MinWatts() float64 { return f.Watts[0] }

// Point returns the operating point behind frontier index i. The returned
// slice aliases the frontier's storage; callers must not mutate it.
func (f *Frontier) Point(i int) (coreSteps []int, memStep int) {
	return f.steps[i], f.mems[i]
}

// Builder constructs frontiers, reusing every work array across builds so a
// per-epoch rebuild settles into zero allocations once scratch is warm.
type Builder struct {
	ev policy.Evaluator

	cur   policy.Eval
	cand  policy.Eval
	best  policy.Eval
	steps []int
	trial []int

	// Walk recording (roughly descending watts); Pareto-filtered into the
	// Frontier.
	walkW     []float64
	walkS     []float64
	walkSteps [][]int
	walkMems  []int
	idx       []int
	keep      []int
}

// Build derives a node's frontier from its configuration and a profiling
// observation, writing into dst (grow-only scratch reuse). The walk is the
// PowerCap descent run to the very bottom with every visited configuration
// recorded: starting from all-max it repeatedly takes the move with the best
// Δpower/Δperformance utility, which yields the marginal-utility-ordered
// chain the water-filling allocator climbs back up.
func (b *Builder) Build(dst *Frontier, cfg policy.Config, obs policy.Observation) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("fastcap: %w", err)
	}
	if len(obs.Cores) != cfg.NCores {
		return fmt.Errorf("fastcap: observation has %d cores, config %d", len(obs.Cores), cfg.NCores)
	}
	// The table path is bit-identical to the direct path (DESIGN.md §10)
	// and turns each candidate evaluation into an incremental gather.
	b.ev.UseTables = true
	b.ev.Reset(cfg, obs)

	n := cfg.NCores
	b.steps = perf.ResizeInts(b.steps, n)
	memStep := 0
	b.ev.EvaluateBaselineInto(&b.cur)

	b.walkW = b.walkW[:0]
	b.walkS = b.walkS[:0]
	b.walkMems = b.walkMems[:0]
	nVisited := 0
	record := func(steps []int, mem int, e *policy.Eval) {
		b.walkW = append(b.walkW, e.Power.Total)
		b.walkS = append(b.walkS, e.MaxSlow)
		if nVisited < len(b.walkSteps) {
			b.walkSteps[nVisited] = perf.ResizeInts(b.walkSteps[nVisited], n)
		} else {
			b.walkSteps = append(b.walkSteps, make([]int, n))
		}
		copy(b.walkSteps[nVisited], steps)
		b.walkMems = append(b.walkMems, mem)
		nVisited++
	}
	record(b.steps, memStep, &b.cur)

	maxIters := cfg.MemLadder.Steps() + cfg.CoreLadder.Steps()*n
	for iter := 0; iter < maxIters; iter++ {
		mem, ok := b.bestMove(cfg, memStep)
		if !ok {
			break
		}
		memStep = mem
		b.cur, b.best = b.best, b.cur // adopt the chosen move's evaluation
		record(b.steps, memStep, &b.cur)
	}

	// Pareto-filter the visited set. The walk's watts are not strictly
	// monotone — shedding one core's frequency can relieve memory
	// contention enough to *improve* the worst slowdown — so visited
	// points are sorted by watts (stable insertion sort; the walk is
	// nearly sorted already) and swept keeping only strict improvements:
	// watts strictly ascending, slowdown strictly decreasing.
	b.idx = perf.ResizeInts(b.idx, nVisited)
	for i := range b.idx {
		b.idx[i] = nVisited - 1 - i // reverse: roughly ascending watts
	}
	for i := 1; i < nVisited; i++ {
		for j := i; j > 0 && b.walkW[b.idx[j]] < b.walkW[b.idx[j-1]]; j-- {
			b.idx[j], b.idx[j-1] = b.idx[j-1], b.idx[j]
		}
	}
	b.keep = b.keep[:0]
	for _, id := range b.idx {
		if len(b.keep) > 0 {
			last := b.keep[len(b.keep)-1]
			if b.walkW[id] <= b.walkW[last] || b.walkS[id] >= b.walkS[last] {
				continue
			}
		}
		b.keep = append(b.keep, id)
	}

	nPoints := len(b.keep)
	dst.Watts = perf.GrowFloats(dst.Watts, nPoints)
	dst.Slow = perf.GrowFloats(dst.Slow, nPoints)
	dst.mems = perf.ResizeInts(dst.mems, nPoints)
	if cap(dst.steps) < nPoints {
		dst.steps = make([][]int, nPoints)
	}
	dst.steps = dst.steps[:nPoints]
	for i, id := range b.keep {
		dst.Watts[i] = b.walkW[id]
		dst.Slow[i] = b.walkS[id]
		dst.mems[i] = b.walkMems[id]
		dst.steps[i] = perf.ResizeInts(dst.steps[i], n)
		copy(dst.steps[i], b.walkSteps[id])
	}
	return nil
}

// bestMove mutates b.steps (and returns the new memory step) to the
// single-step-down move with the best marginal utility, leaving its
// evaluation in b.best. Candidate order is fixed — memory first, then cores
// ascending — and ties keep the first candidate, so the walk is
// deterministic. It reports false when every ladder is at its bottom.
func (b *Builder) bestMove(cfg policy.Config, memStep int) (int, bool) {
	bestU := math.Inf(-1)
	bestCore := -1 // -1 = memory move
	found := false
	if !cfg.MemLadder.Bottom(memStep) {
		b.ev.EvaluateInto(&b.cand, b.steps, memStep+1)
		bestU = core.Utility(b.cur.Power.Total-b.cand.Power.Total, b.cand.MaxSlow-b.cur.MaxSlow)
		b.best, b.cand = b.cand, b.best
		found = true
	}
	b.trial = perf.ResizeInts(b.trial, len(b.steps))
	copy(b.trial, b.steps)
	for i := range b.steps {
		if cfg.CoreLadder.Bottom(b.steps[i]) {
			continue
		}
		b.trial[i]++
		b.ev.EvaluateInto(&b.cand, b.trial, memStep)
		u := core.Utility(b.cur.Power.Total-b.cand.Power.Total, b.cand.MaxSlow-b.cur.MaxSlow)
		if u > bestU || !found {
			bestU = u
			bestCore = i
			b.best, b.cand = b.cand, b.best
			found = true
		}
		b.trial[i]--
	}
	if !found {
		return memStep, false
	}
	if bestCore < 0 {
		return memStep + 1, true
	}
	b.steps[bestCore]++
	return memStep, true
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) over the given
// values: 1 when all are equal, approaching 1/n as one value dominates.
// An empty or all-zero input returns 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum, sq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq <= 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
