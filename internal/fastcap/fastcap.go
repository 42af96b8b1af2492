// Package fastcap allocates a global power budget across the nodes of a
// simulated fleet — the FastCap direction (Liu, Cox, Deng, Draper,
// Bianchini; PAPERS.md): efficient *and fair* power capping, promoted from
// the single-node core.PowerCap controller to a datacenter-scale problem.
//
// Each node is summarized by a power/performance Frontier: the Pareto menu
// of (watts, worst slowdown) operating points that core.CapWalk, the
// marginal-utility walk PowerCap runs, visits between all-max and all-min
// frequencies (through policy.Config.Tables the walks share one
// per-platform table cache — one platform-column build per process for the
// whole fleet). The Allocator then splits the budget over those
// menus: Fair runs max-min water-filling over normalized slowdown —
// repeatedly buying the next frontier step for whichever node is currently
// worst off — Greedy spends each watt where it buys the most slowdown
// reduction anywhere in the fleet, and Uniform is the static budget/N
// reference split. The Rebalancer ties the pieces into the epoch loop:
// rebuild frontiers as workload mixes shift — a node whose observation is
// bit-identical to its previous one keeps its frontier, and under an
// unchanged assignment its decision too — reallocate, then run each node's
// core.PowerCap against its assigned slice.
//
// Determinism is load-bearing (the package is in the determinism lint
// scope): identical inputs produce Float64bits-identical assignments
// regardless of node input order — all budget arithmetic and all
// worst-node selections run in sorted-node-ID order — and the steady-state
// Allocate path is allocation-free, like the rest of the hot path.
package fastcap

import (
	"fmt"

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
	walk core.CapWalk
	idx  []int
	keep []int
}

// Build derives a node's frontier from its configuration and a profiling
// observation, writing into dst (grow-only scratch reuse). The frontier is
// the trail of core.CapWalk, the walk PowerCap runs, taken to the ladder
// floor without slack limits: starting from all-max it repeatedly takes
// the move with the best Δpower/Δperformance utility, which yields the
// marginal-utility-ordered chain the water-filling allocator climbs back
// up.
func (b *Builder) Build(dst *Frontier, cfg policy.Config, obs policy.Observation) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("fastcap: %w", err)
	}
	if len(obs.Cores) != cfg.NCores {
		return fmt.Errorf("fastcap: observation has %d cores, config %d", len(obs.Cores), cfg.NCores)
	}
	b.walk.Reset(cfg, obs, nil)
	for b.walk.Step() {
	}
	t := b.walk.Trail()
	nVisited := t.Len()

	// Pareto-filter the visited set. The walk's watts are not strictly
	// monotone — shedding one core's frequency can relieve memory
	// contention enough to *improve* the worst slowdown — so visited
	// points are sorted by watts (stable insertion sort; the walk is
	// nearly sorted already) and swept keeping only strict improvements:
	// watts strictly ascending, slowdown strictly decreasing.
	b.idx = perf.Resize(b.idx, nVisited)
	for i := range b.idx {
		b.idx[i] = nVisited - 1 - i // reverse: roughly ascending watts
	}
	for i := 1; i < nVisited; i++ {
		for j := i; j > 0 && t.Watts[b.idx[j]] < t.Watts[b.idx[j-1]]; j-- {
			b.idx[j], b.idx[j-1] = b.idx[j-1], b.idx[j]
		}
	}
	b.keep = b.keep[:0]
	for _, id := range b.idx {
		if len(b.keep) > 0 {
			last := b.keep[len(b.keep)-1]
			if t.Watts[id] <= t.Watts[last] || t.Slow[id] >= t.Slow[last] {
				continue
			}
		}
		b.keep = append(b.keep, id)
	}

	nPoints := len(b.keep)
	dst.Watts = perf.Grow(dst.Watts, nPoints)
	dst.Slow = perf.Grow(dst.Slow, nPoints)
	dst.mems = perf.Resize(dst.mems, nPoints)
	if cap(dst.steps) < nPoints {
		dst.steps = make([][]int, nPoints)
	}
	dst.steps = dst.steps[:nPoints]
	for i, id := range b.keep {
		dst.Watts[i] = t.Watts[id]
		dst.Slow[i] = t.Slow[id]
		dst.mems[i] = t.Mems[id]
		dst.steps[i] = perf.Resize(dst.steps[i], cfg.NCores)
		copy(dst.steps[i], t.Steps(id))
	}
	return nil
}

// Evals returns how many operating points the builder's walk has evaluated
// since it was made (core.CapWalk.Evals).
func (b *Builder) Evals() int64 { return b.walk.Evals() }

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
