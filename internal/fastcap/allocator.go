package fastcap

import (
	"errors"
	"fmt"
	"math"

	"coscale/internal/perf"
)

// Strategy selects how the Allocator splits the global budget.
type Strategy int

const (
	// Fair is max-min water-filling over normalized slowdown: repeatedly
	// buy the next frontier step for whichever node currently suffers the
	// worst slowdown, until no node's next step fits in the remaining
	// budget. This is the FastCap fairness guarantee — no node can be made
	// better off without making an already-worse node worse.
	Fair Strategy = iota
	// Greedy spends each remaining watt wherever it buys the most slowdown
	// reduction per watt anywhere in the fleet, ignoring who is worst off.
	// Efficient in aggregate, unfair under pressure.
	Greedy
	// Uniform is the static reference split: budget/N to every node, each
	// node independently picking its best point under its slice. A node
	// whose floor exceeds its slice is clamped to the floor, so unlike
	// Fair/Greedy the uniform split only conserves the total budget when
	// every node's floor fits in budget/N.
	Uniform
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Fair:
		return "fair"
	case Greedy:
		return "greedy"
	case Uniform:
		return "uniform"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ErrBudgetInfeasible reports a global budget below the sum of the nodes'
// minimum achievable powers: even with every node clamped to its
// all-minimum-frequency floor the fleet exceeds the cap. The assignments
// returned alongside it are those floors — the closest reachable split.
var ErrBudgetInfeasible = errors.New("fastcap: global budget infeasible")

// Node is one allocation target: a stable identifier and its current
// frontier. IDs must be unique; allocation arithmetic runs in sorted-ID
// order so results are independent of the slice order callers pass.
type Node struct {
	ID string
	F  *Frontier
}

// Assignment is one node's slice of the global budget: the watts granted
// and the frontier point that grant purchases. Assignments are returned in
// the same order as the input nodes.
type Assignment struct {
	Node  string
	Watts float64
	Point int
}

// Allocator splits a global power budget across node frontiers under one of
// the three strategies. It is not safe for concurrent use; its scratch
// state exists so that steady-state Allocate calls are allocation-free.
type Allocator struct {
	Strategy Strategy

	order  []int
	cur    []int
	frozen []bool
}

// Allocate splits budget across nodes, appending one Assignment per node to
// out (pass out[:0] to reuse its backing array). The result is
// Float64bits-deterministic: every floating-point reduction and every
// worst-node/best-gain selection scans nodes in sorted-ID order with
// first-wins ties, so permuting the input yields bit-identical watts for
// each node ID. When the budget cannot cover even the all-minimum floors,
// every node is assigned its floor and the error wraps ErrBudgetInfeasible.
func (a *Allocator) Allocate(budget float64, nodes []Node, out []Assignment) ([]Assignment, error) {
	if len(nodes) == 0 {
		return out, nil
	}
	if budget <= 0 || math.IsNaN(budget) {
		return out, fmt.Errorf("fastcap: budget %g W must be positive", budget)
	}
	for i := range nodes {
		if nodes[i].F == nil || nodes[i].F.Len() == 0 {
			return out, fmt.Errorf("fastcap: node %q has an empty frontier", nodes[i].ID)
		}
	}

	n := len(nodes)
	a.order = perf.Resize(a.order, n)
	for i := range a.order {
		a.order[i] = i
	}
	// Insertion sort by node ID (sort.Slice's closure allocates; n is small).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && nodes[a.order[j]].ID < nodes[a.order[j-1]].ID; j-- {
			a.order[j], a.order[j-1] = a.order[j-1], a.order[j]
		}
	}
	for k := 1; k < n; k++ {
		if nodes[a.order[k]].ID == nodes[a.order[k-1]].ID {
			return out, fmt.Errorf("fastcap: duplicate node ID %q", nodes[a.order[k]].ID)
		}
	}

	a.cur = perf.Resize(a.cur, n)

	// Floors first, summed in ID order for permutation invariance. The sum
	// is formed before comparing so a budget exactly equal to the fleet
	// minimum is feasible (sequentially subtracting the floors instead
	// can go a ulp negative on the same inputs).
	floorSum := 0.0
	for _, i := range a.order {
		floorSum += nodes[i].F.MinWatts()
	}
	if floorSum > budget {
		for i := range nodes {
			out = append(out, Assignment{Node: nodes[i].ID, Watts: nodes[i].F.MinWatts(), Point: 0})
		}
		return out, fmt.Errorf("%w: %g W below the %g W fleet minimum",
			ErrBudgetInfeasible, budget, floorSum)
	}
	remaining := budget - floorSum

	switch a.Strategy {
	case Uniform:
		a.allocateUniform(budget, nodes)
	case Greedy:
		a.climb(remaining, nodes, greedyPick)
	default:
		a.climb(remaining, nodes, fairPick)
	}

	for i := range nodes {
		out = append(out, Assignment{
			Node:  nodes[i].ID,
			Watts: nodes[i].F.Watts[a.cur[i]],
			Point: a.cur[i],
		})
	}
	return out, nil
}

// pickFunc selects which node (index into order) should climb next, or -1
// to stop. Both implementations scan in sorted-ID order with strict
// comparisons so ties resolve to the first (lowest-ID) candidate.
type pickFunc func(a *Allocator, nodes []Node) int

// climb repeatedly advances the picked node one frontier point as long as
// the step's incremental watts fit in the remaining budget; a node whose
// next step does not fit is frozen (water level reached). Returns the
// unspent remainder.
func (a *Allocator) climb(remaining float64, nodes []Node, pick pickFunc) float64 {
	n := len(nodes)
	if cap(a.frozen) < n {
		a.frozen = make([]bool, n)
	}
	a.frozen = a.frozen[:n]
	for i := range a.frozen {
		a.frozen[i] = nodes[i].F.Len() == 1
	}
	for {
		i := pick(a, nodes)
		if i < 0 {
			return remaining
		}
		f := nodes[i].F
		step := f.Watts[a.cur[i]+1] - f.Watts[a.cur[i]]
		if step > remaining {
			a.frozen[i] = true
			continue
		}
		remaining -= step
		a.cur[i]++
		if a.cur[i]+1 >= f.Len() {
			a.frozen[i] = true
		}
	}
}

// fairPick returns the unfrozen node with the worst current slowdown —
// the max-min water-filling rule.
func fairPick(a *Allocator, nodes []Node) int {
	best, worst := -1, math.Inf(-1)
	for _, i := range a.order {
		if a.frozen[i] {
			continue
		}
		if s := nodes[i].F.Slow[a.cur[i]]; s > worst {
			worst = s
			best = i
		}
	}
	return best
}

// greedyPick returns the unfrozen node whose next frontier step buys the
// most slowdown reduction per watt.
func greedyPick(a *Allocator, nodes []Node) int {
	best, bestGain := -1, math.Inf(-1)
	for _, i := range a.order {
		if a.frozen[i] {
			continue
		}
		f := nodes[i].F
		dW := f.Watts[a.cur[i]+1] - f.Watts[a.cur[i]]
		dS := f.Slow[a.cur[i]] - f.Slow[a.cur[i]+1]
		gain := math.Inf(1)
		if dW > 0 {
			gain = dS / dW
		}
		if gain > bestGain {
			bestGain = gain
			best = i
		}
	}
	return best
}

// allocateUniform gives every node an equal budget/N slice and picks each
// node's highest frontier point under its slice (its floor if even that
// does not fit — feasibility of the total was already checked, but a
// uniform split can still starve an expensive node below its floor).
func (a *Allocator) allocateUniform(budget float64, nodes []Node) {
	slice := budget / float64(len(nodes))
	for _, i := range a.order {
		f := nodes[i].F
		p := 0
		for p+1 < f.Len() && f.Watts[p+1] <= slice {
			p++
		}
		a.cur[i] = p
	}
}
