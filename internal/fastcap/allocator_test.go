package fastcap

import (
	"errors"
	"math"
	"testing"

	"coscale/internal/approx"
	"coscale/internal/trace"
)

// synthFrontier builds a deterministic monotone frontier from a seed:
// strictly increasing watts, strictly decreasing slowdown ending at 1.
func synthFrontier(seed uint64, npts int) *Frontier {
	f := &Frontier{
		Watts: make([]float64, npts),
		Slow:  make([]float64, npts),
	}
	w := 40 + float64(trace.Mix64(seed)%1000)/50 // floor 40..60 W
	s := 1.0
	// Fill from the top (all-max) down so the last point has slowdown 1.
	for i := npts - 1; i >= 0; i-- {
		f.Slow[i] = s
		s += 0.02 + float64(trace.Mix64(seed^uint64(i)*0x9e37)%1000)/10000
	}
	for i := 0; i < npts; i++ {
		f.Watts[i] = w
		w += 3 + float64(trace.Mix64(seed^uint64(i)*0xc2b2)%1000)/200
	}
	return f
}

func synthNodes(seed uint64, n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		id := []byte{'n', '0' + byte(i/10), '0' + byte(i%10)}
		nodes[i] = Node{ID: string(id), F: synthFrontier(seed^uint64(i)*0x85eb, 4+int(trace.Mix64(seed^uint64(i))%8))}
	}
	return nodes
}

func totalWatts(asg []Assignment) float64 {
	// Conservation is checked over an ID-ordered sum to match the
	// allocator's own arithmetic order (n is tiny; insertion sort).
	sorted := append([]Assignment(nil), asg...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Node < sorted[j-1].Node; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	sum := 0.0
	for _, a := range sorted {
		sum += a.Watts
	}
	return sum
}

func fleetFloor(nodes []Node) float64 {
	sum := 0.0
	for _, n := range nodes {
		sum += n.F.MinWatts()
	}
	return sum
}

func fleetMax(nodes []Node) float64 {
	sum := 0.0
	for _, n := range nodes {
		sum += n.F.Watts[n.F.Len()-1]
	}
	return sum
}

// TestAllocateBitIdenticalAcrossOrderingsAndReplays is the seeded property
// test the issue pins determinism on: for every strategy and node count,
// allocations are Float64bits-identical across replays and across input
// permutations (rotations and full reversal of the node slice).
func TestAllocateBitIdenticalAcrossOrderingsAndReplays(t *testing.T) {
	for _, strat := range []Strategy{Fair, Greedy, Uniform} {
		for _, n := range []int{1, 2, 4, 8, 16} {
			for trial := 0; trial < 8; trial++ {
				seed := uint64(0xFA57CA9)*uint64(trial+1) ^ uint64(n)<<32
				nodes := synthNodes(seed, n)
				span := fleetMax(nodes) - fleetFloor(nodes)
				budget := fleetFloor(nodes) + span*float64(trace.Mix64(seed)%100)/100

				a := &Allocator{Strategy: strat}
				ref, err := a.Allocate(budget, nodes, nil)
				if err != nil {
					t.Fatalf("%v n=%d trial %d: %v", strat, n, trial, err)
				}
				want := make(map[string]uint64, n)
				for _, g := range ref {
					want[g.Node] = math.Float64bits(g.Watts)
				}

				check := func(label string, perm []Node) {
					t.Helper()
					got, err := a.Allocate(budget, perm, nil)
					if err != nil {
						t.Fatalf("%v n=%d trial %d %s: %v", strat, n, trial, label, err)
					}
					for _, g := range got {
						if math.Float64bits(g.Watts) != want[g.Node] {
							t.Fatalf("%v n=%d trial %d %s: node %s watts %x != %x",
								strat, n, trial, label, g.Node, math.Float64bits(g.Watts), want[g.Node])
						}
					}
				}

				check("replay", nodes)
				rev := make([]Node, n)
				for i := range nodes {
					rev[n-1-i] = nodes[i]
				}
				check("reversed", rev)
				for _, rot := range []int{1, n / 2} {
					perm := append(append([]Node(nil), nodes[rot%n:]...), nodes[:rot%n]...)
					check("rotated", perm)
				}
			}
		}
	}
}

func TestAllocateConservesBudget(t *testing.T) {
	for _, strat := range []Strategy{Fair, Greedy} {
		for trial := 0; trial < 16; trial++ {
			seed := uint64(0xB1D9E7)*uint64(trial+1) + 7
			nodes := synthNodes(seed, 6)
			budget := fleetFloor(nodes) + (fleetMax(nodes)-fleetFloor(nodes))*float64(trial)/16
			a := &Allocator{Strategy: strat}
			asg, err := a.Allocate(budget, nodes, nil)
			if err != nil {
				t.Fatalf("%v trial %d: %v", strat, trial, err)
			}
			if sum := totalWatts(asg); sum > budget*(1+1e-12) {
				t.Errorf("%v trial %d: assignments %.6f W exceed budget %.6f W", strat, trial, sum, budget)
			}
		}
	}
}

func TestAllocateInfeasibleBudgetClampsToFloors(t *testing.T) {
	nodes := synthNodes(42, 4)
	a := &Allocator{Strategy: Fair}
	asg, err := a.Allocate(fleetFloor(nodes)*0.5, nodes, nil)
	if !errors.Is(err, ErrBudgetInfeasible) {
		t.Fatalf("err = %v, want ErrBudgetInfeasible", err)
	}
	for i, g := range asg {
		if g.Point != 0 {
			t.Errorf("node %s not at floor: point %d", g.Node, g.Point)
		}
		if !approx.Close(g.Watts, nodes[i].F.MinWatts()) {
			t.Errorf("node %s watts %.3f != floor %.3f", g.Node, g.Watts, nodes[i].F.MinWatts())
		}
	}
}

func TestAllocateRejectsBadInput(t *testing.T) {
	nodes := synthNodes(7, 2)
	a := &Allocator{}
	if _, err := a.Allocate(0, nodes, nil); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := a.Allocate(math.NaN(), nodes, nil); err == nil {
		t.Error("NaN budget accepted")
	}
	if _, err := a.Allocate(100, []Node{{ID: "x", F: &Frontier{}}}, nil); err == nil {
		t.Error("empty frontier accepted")
	}
	dup := []Node{nodes[0], nodes[0]}
	if _, err := a.Allocate(1000, dup, nil); err == nil {
		t.Error("duplicate node IDs accepted")
	}
	if got, err := a.Allocate(100, nil, nil); err != nil || len(got) != 0 {
		t.Errorf("empty fleet: %v, %d assignments", err, len(got))
	}
}

func TestAllocateUniformSlices(t *testing.T) {
	nodes := synthNodes(99, 4)
	budget := fleetMax(nodes) * 0.8
	slice := budget / 4
	a := &Allocator{Strategy: Uniform}
	asg, err := a.Allocate(budget, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range asg {
		floor := nodes[i].F.MinWatts()
		if g.Watts > slice*(1+1e-12) && g.Watts > floor*(1+1e-12) {
			t.Errorf("node %s assigned %.2f W over slice %.2f W and floor %.2f W", g.Node, g.Watts, slice, floor)
		}
	}
}

// TestFairBeatsGreedyOnWorstNode pins the fairness property on a crafted
// fleet: one node with steep, cheap gains and one stuck with expensive
// steps. Greedy showers the cheap node; Fair lifts the worst-off one.
func TestFairBeatsGreedyOnWorstNode(t *testing.T) {
	cheap := &Frontier{ // big slowdown relief per watt
		Watts: []float64{50, 52, 54, 56, 58},
		Slow:  []float64{1.30, 1.22, 1.14, 1.07, 1.00},
	}
	costly := &Frontier{ // worst off, and each step costs real watts
		Watts: []float64{50, 60, 70, 80, 90},
		Slow:  []float64{1.60, 1.45, 1.30, 1.15, 1.00},
	}
	nodes := []Node{{ID: "a", F: cheap}, {ID: "b", F: costly}}
	budget := 128.0 // enough for the cheap node plus ~2 costly steps

	worst := func(strat Strategy) float64 {
		a := &Allocator{Strategy: strat}
		asg, err := a.Allocate(budget, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := 0.0
		for i, g := range asg {
			if s := nodes[i].F.Slow[g.Point]; s > w {
				w = s
			}
		}
		return w
	}
	fair, greedy := worst(Fair), worst(Greedy)
	if fair > greedy {
		t.Errorf("fair worst-node slowdown %.3f > greedy %.3f", fair, greedy)
	}
	if !(fair < greedy) {
		t.Logf("fair == greedy (%.3f) on this fleet; property still holds", fair)
	}
}

func TestAllocateSteadyStateAllocationFree(t *testing.T) {
	nodes := synthNodes(1234, 8)
	budget := (fleetFloor(nodes) + fleetMax(nodes)) / 2
	for _, strat := range []Strategy{Fair, Greedy, Uniform} {
		a := &Allocator{Strategy: strat}
		out := make([]Assignment, 0, len(nodes))
		var err error
		if out, err = a.Allocate(budget, nodes, out[:0]); err != nil { // warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			out, err = a.Allocate(budget, nodes, out[:0])
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%v: %v allocs per steady-state Allocate, want 0", strat, allocs)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{3, 3, 3, 3}); !approx.Close(got, 1) {
		t.Errorf("equal shares: %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !approx.Close(got, 0.25) {
		t.Errorf("single dominant: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero: %v, want 0", got)
	}
	uneven := JainIndex([]float64{1, 2, 3, 10})
	if !(uneven > 0.25 && uneven < 1) {
		t.Errorf("uneven shares: %v, want strictly between 1/n and 1", uneven)
	}
}
