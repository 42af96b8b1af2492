package fastcap

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"coscale/internal/core"
	"coscale/internal/policy"
)

// NodeEpoch is one node's outcome for one rebalancing epoch: the watts it
// was assigned, the power and worst slowdown its PowerCap decision is
// predicted to realize under that assignment, and whether the node was
// clamped to its all-minimum floor because the assignment (or the global
// budget itself) was infeasible.
type NodeEpoch struct {
	ID       string
	Assigned float64
	Power    float64
	MaxSlow  float64
	Clamped  bool
}

// rbNode is one managed node. Nodes live in a slice in Add order — no maps,
// so iteration order is deterministic by construction. Everything a node's
// per-epoch work touches — builder, frontier, controller, the copy of its
// last observation and its result and error slots — is its own, so nodes
// can be processed concurrently without sharing any mutable state.
type rbNode struct {
	id   string
	cfg  policy.Config
	cap  *core.PowerCap
	b    Builder
	f    Frontier
	prev uint64 // Float64bits of last epoch's assignment

	// Reuse keys. seen is an owned deep copy of the observation f was
	// built from (valid while built); power, slow and clamped hold the
	// decision for seen under the cap whose Float64bits are capBits (valid
	// while decided). The controller never sees Observe, so both results
	// are pure functions of these keys.
	seen    policy.Observation
	built   bool
	decided bool
	capBits uint64

	// Per-epoch slots, written only by the lane that claimed this node's
	// build or decision item.
	power   float64 // the decision's predicted total power
	slow    float64 // the decision's predicted worst slowdown
	clamped bool    // DecideCapped reported ErrCapInfeasible
	err     error
}

// Rebalancer runs the fleet-level epoch loop: each epoch it rebuilds the
// frontier of every node whose observation changed, reallocates the global
// budget across the frontiers, and drives each node's core.PowerCap
// against its assigned slice. One Rebalancer per strategy; it is not safe
// for concurrent use.
type Rebalancer struct {
	alloc Allocator

	nodes []rbNode

	// Scratch reused across epochs.
	anodes  []Node
	assigns []Assignment

	// The fan-out's state, kept here so that an epoch allocates nothing
	// of its own: the items a phase runs, the inputs they read (obs is set
	// only while Epoch runs; scale is this epoch's budget over the last
	// one's), the lane counter and join, and lane, the lane body bound
	// once so that starting a lane allocates nothing.
	work  []workItem
	obs   []policy.Observation
	scale float64
	next  atomic.Int64 // the next unclaimed position in work
	wg    sync.WaitGroup
	lane  func()

	budget     float64 // the last epoch's budget
	rebalances int64
	builds     int64
	epochs     int64
}

// NewRebalancer returns a rebalancer allocating under the given strategy.
func NewRebalancer(s Strategy) *Rebalancer {
	r := &Rebalancer{alloc: Allocator{Strategy: s}}
	r.lane = r.runLane
	return r
}

// Strategy returns the allocation strategy this rebalancer runs.
func (r *Rebalancer) Strategy() Strategy { return r.alloc.Strategy }

// Len returns the number of managed nodes.
func (r *Rebalancer) Len() int { return len(r.nodes) }

// Rebalances returns how many epochs changed at least one node's
// assignment (Float64bits comparison against the previous epoch).
func (r *Rebalancer) Rebalances() int64 { return r.rebalances }

// Builds returns how many frontier builds Epoch has run. A node whose
// observation is bit-identical to its previous one keeps its frontier, so
// this grows by fewer than Len per epoch while workloads hold a phase.
func (r *Rebalancer) Builds() int64 { return r.builds }

// Evals returns how many operating points the nodes' frontier walks and
// capped walks have evaluated, summed over the nodes now managed. An
// epoch that rebuilds some nodes but not all can re-walk their
// controllers on idle lanes (see Epoch), and a re-walk may evaluate
// points the decision does not need, so the count then depends on
// GOMAXPROCS; the decisions do not.
func (r *Rebalancer) Evals() int64 {
	var sum int64
	for i := range r.nodes {
		sum += r.nodes[i].b.Evals() + r.nodes[i].cap.Evals()
	}
	return sum
}

// AddNode registers a node. The initial per-node cap is a placeholder —
// the first Epoch call overwrites it with the node's real assignment.
func (r *Rebalancer) AddNode(id string, cfg policy.Config) error {
	if id == "" {
		return errors.New("fastcap: empty node ID")
	}
	for i := range r.nodes {
		if r.nodes[i].id == id {
			return fmt.Errorf("fastcap: duplicate node ID %q", id)
		}
	}
	pc, err := core.NewPowerCap(cfg, math.MaxFloat64)
	if err != nil {
		return fmt.Errorf("fastcap: node %q: %w", id, err)
	}
	r.nodes = append(r.nodes, rbNode{
		id:  id,
		cfg: cfg,
		cap: pc,
	})
	return nil
}

// RemoveNode drops a node (a worker leaving the fleet mid-run), reporting
// whether it was present. Remaining nodes keep their relative order.
func (r *Rebalancer) RemoveNode(id string) bool {
	for i := range r.nodes {
		if r.nodes[i].id == id {
			r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
			return true
		}
	}
	return false
}

// NodeIDs appends the managed node IDs, in Add order, to dst.
func (r *Rebalancer) NodeIDs(dst []string) []string {
	for i := range r.nodes {
		dst = append(dst, r.nodes[i].id)
	}
	return dst
}

// Epoch runs one rebalancing round: obs holds one observation per node in
// Add order (the workload mix each node profiled this epoch). One
// NodeEpoch per node is appended to out (pass out[:0] to reuse). When the
// budget cannot cover the fleet's all-minimum floors, every node is
// clamped to its floor and the error wraps ErrBudgetInfeasible; the
// returned epochs are still valid actuations.
//
// Each node's frontier and capped decision depend on that node's own
// observation (and, for the decision, its assignment) alone; only the
// allocation couples the nodes. So the frontier builds and the per-node
// decisions run concurrently across nodes, the allocation runs serially
// between them, and the results are reduced in node order afterwards: the
// outcome is bit-identical to a serial pass at any GOMAXPROCS, and a
// failure is reported for the lowest failing node. A node whose
// observation matches its previous one field for field (floats by
// Float64bits) keeps its frontier, and if its assignment bits match too,
// its decision; an epoch that changes nothing starts no goroutines.
//
// When the builds leave a lane idle (fewer builds than min(GOMAXPROCS,
// Len)), each rebuilt node that has decided before also re-walks its
// PowerCap during the build phase, under its previous assignment scaled
// by the budget's change. The walk is a pure function of the observation
// and the slowdown limits, so the decision phase then replays that trail
// or steps it only past its end: the re-walk moves work off the critical
// path and no output bit.
func (r *Rebalancer) Epoch(budget float64, obs []policy.Observation, out []NodeEpoch) ([]NodeEpoch, error) {
	if len(obs) != len(r.nodes) {
		return out, fmt.Errorf("fastcap: %d observations for %d nodes", len(obs), len(r.nodes))
	}
	if len(r.nodes) == 0 {
		return out, nil
	}
	r.obs = obs
	out, err := r.epoch(budget, out)
	r.obs = nil // the caller owns obs; keep no reference past the call
	return out, err
}

func (r *Rebalancer) epoch(budget float64, out []NodeEpoch) ([]NodeEpoch, error) {
	r.work = r.work[:0]
	for i := range r.nodes {
		n := &r.nodes[i]
		n.err = nil
		if n.built && n.seen.BitEqual(&r.obs[i]) {
			continue
		}
		n.built, n.decided = false, false
		r.work = append(r.work, workItem{node: i, kind: build})
	}
	if builds := len(r.work); builds > 0 {
		r.builds += int64(builds)
		if builds < min(runtime.GOMAXPROCS(0), len(r.nodes)) {
			// A re-walk guesses the new assignment as the previous one
			// scaled by the budget's change, so that the decision phase
			// has the least trail left to walk. It is scheduled only for
			// observations Build accepts: the decision phase never runs
			// on the others.
			r.scale = budget / r.budget
			if !(r.scale > 0 && r.scale <= math.MaxFloat64) {
				r.scale = 1
			}
			for _, it := range r.work[:builds] {
				n := &r.nodes[it.node]
				if n.capBits != 0 && len(r.obs[it.node].Cores) == n.cfg.NCores {
					r.work = append(r.work, workItem{node: it.node, kind: rewalk})
				}
			}
		}
		r.forEachNode()
	}
	r.anodes = r.anodes[:0]
	for i := range r.nodes {
		n := &r.nodes[i]
		if n.err != nil {
			return out, fmt.Errorf("fastcap: node %q: %w", n.id, n.err)
		}
		r.anodes = append(r.anodes, Node{ID: n.id, F: &n.f})
	}

	var err error
	r.assigns, err = r.alloc.Allocate(budget, r.anodes, r.assigns[:0])
	if err != nil && !errors.Is(err, ErrBudgetInfeasible) {
		return out, err
	}

	r.work = r.work[:0]
	for i := range r.nodes {
		n := &r.nodes[i]
		if n.decided && n.capBits == math.Float64bits(r.assigns[i].Watts) {
			continue
		}
		n.decided = false
		r.work = append(r.work, workItem{node: i, kind: decide})
	}
	if len(r.work) > 0 {
		r.forEachNode()
	}

	changed := false
	for i := range r.nodes {
		n := &r.nodes[i]
		if n.err != nil {
			return out, fmt.Errorf("fastcap: node %q: %w", n.id, n.err)
		}
		asg := r.assigns[i]
		out = append(out, NodeEpoch{
			ID:       n.id,
			Assigned: asg.Watts,
			Power:    n.power,
			MaxSlow:  n.slow,
			Clamped:  err != nil || n.clamped, // global infeasibility clamps everyone
		})
		bits := math.Float64bits(asg.Watts)
		if r.epochs > 0 && bits != n.prev {
			changed = true
		}
		n.prev = bits
	}
	if r.epochs == 0 || changed {
		r.rebalances++
	}
	r.epochs++
	r.budget = budget
	return out, err
}

// itemKind is what a work item does to its node.
type itemKind uint8

const (
	build  itemKind = iota // rebuild the node's frontier
	rewalk                 // walk the node's PowerCap under a guess at its new assignment
	decide                 // decide under the node's new assignment
)

// workItem is one entry of a phase's work list.
type workItem struct {
	node int
	kind itemKind
}

// run does one work item. A build writes only its node's builder,
// frontier, observation copy and result slots; a re-walk writes only its
// node's controller and discards what it returns. So the two items of one
// node can run concurrently: they share only read-only inputs.
func (r *Rebalancer) run(it workItem) {
	n, obs := &r.nodes[it.node], r.obs[it.node]
	switch it.kind {
	case build:
		if n.err = n.b.Build(&n.f, n.cfg, obs); n.err == nil {
			obs.CloneInto(&n.seen)
			n.built = true
		}
	case rewalk:
		if n.cap.SetCap(r.scale*math.Float64frombits(n.capBits)) == nil {
			_, _ = n.cap.DecideCapped(obs)
		}
	case decide:
		// The frontier's floor watts and PowerCap's own min-eval are
		// bit-identical (both run the same evaluator), so an assignment
		// at the floor is feasible at the boundary rather than spuriously
		// infeasible.
		n.clamped = false
		w := r.assigns[it.node].Watts
		if n.err = n.cap.SetCap(w); n.err != nil {
			return
		}
		if _, derr := n.cap.DecideCapped(obs); derr != nil {
			if !errors.Is(derr, core.ErrCapInfeasible) {
				n.err = derr
				return
			}
			n.clamped = true
		}
		n.power, n.slow = n.cap.Predicted()
		n.decided, n.capBits = true, math.Float64bits(w)
	}
}

// forEachNode runs every item of r.work across min(GOMAXPROCS,
// len(r.work)) lanes that claim list positions from a shared counter; the
// calling goroutine is one of the lanes, and the call returns after every
// item is done.
func (r *Rebalancer) forEachNode() {
	lanes := min(runtime.GOMAXPROCS(0), len(r.work))
	r.next.Store(0)
	r.wg.Add(lanes)
	for range lanes - 1 {
		//lint:ignore dettaint deterministic by construction: each work item is claimed by exactly one lane, a node's items write disjoint parts of that node from read-only inputs (its build: its builder, frontier, observation copy and slots; its re-walk: its controller alone; its decision, in a later phase: its controller and slots), and the caller reads the slots in node order only after the join — which lane ran an item, and when, cannot reach any output bit (DESIGN.md §13)
		go r.lane()
	}
	r.lane()
	r.wg.Wait()
}

// runLane claims and runs work items until the list is exhausted.
func (r *Rebalancer) runLane() {
	defer r.wg.Done()
	for {
		k := int(r.next.Add(1)) - 1
		if k >= len(r.work) {
			return
		}
		r.run(r.work[k])
	}
}
