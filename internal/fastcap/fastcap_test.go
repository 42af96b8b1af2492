package fastcap

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"coscale/internal/approx"
	"coscale/internal/core"
	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/trace"
)

func testCfg(n int) policy.Config {
	return policy.Config{
		NCores:     n,
		CoreLadder: freq.DefaultCoreLadder(),
		MemLadder:  freq.DefaultMemLadder(),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(n),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
	}
}

func synthObs(cfg policy.Config, perCore []perf.CoreStats) policy.Observation {
	sv := perf.NewSolver(cfg.Mem)
	hz := make([]float64, len(perCore))
	for i := range hz {
		hz[i] = cfg.CoreLadder.MaxHz()
	}
	res := sv.Solve(perCore, hz, cfg.MemLadder.MaxHz())
	obs := policy.Observation{
		Window:     300e-6,
		CoreSteps:  policy.ZeroSteps(len(perCore)),
		Cores:      make([]policy.CoreObs, len(perCore)),
		MemRate:    res.MemRate,
		MemLatency: res.Mem.Latency,
		UtilBus:    res.Mem.UtilBus,
		BusyFrac:   math.Min(1, res.Mem.UtilBank*8),
	}
	for i := range perCore {
		obs.Cores[i] = policy.CoreObs{
			Instructions: uint64(300e-6 / res.TPI[i]),
			Stats:        perCore[i],
			L2PerInstr:   perCore[i].Alpha,
			Mix:          trace.InstrMix{ALU: 0.3, FPU: 0.2, Branch: 0.1, LoadStore: 0.3},
			IPS:          1 / res.TPI[i],
		}
	}
	return obs
}

var (
	compute = perf.CoreStats{CPIBase: 1.1, Alpha: 0.003, StallL2: 7.5e-9, Beta: 0.0003,
		MemPerInstr: 0.0005, MLP: 1}
	memory = perf.CoreStats{CPIBase: 1.4, Alpha: 0.03, StallL2: 7.5e-9, Beta: 0.017,
		MemPerInstr: 0.022, MLP: 1}
)

// blend interpolates between the compute-bound and memory-bound fixtures:
// frac 0 is pure compute, 1 pure memory.
func blend(frac float64) perf.CoreStats {
	lerp := func(a, b float64) float64 { return a + (b-a)*frac }
	return perf.CoreStats{
		CPIBase:     lerp(compute.CPIBase, memory.CPIBase),
		Alpha:       lerp(compute.Alpha, memory.Alpha),
		StallL2:     compute.StallL2,
		Beta:        lerp(compute.Beta, memory.Beta),
		MemPerInstr: lerp(compute.MemPerInstr, memory.MemPerInstr),
		MLP:         1,
	}
}

func mixObs(cfg policy.Config, frac float64) policy.Observation {
	perCore := make([]perf.CoreStats, cfg.NCores)
	for i := range perCore {
		perCore[i] = blend(frac)
	}
	return synthObs(cfg, perCore)
}

func TestBuilderFrontierInvariants(t *testing.T) {
	cfg := testCfg(8)
	obs := mixObs(cfg, 0.7)
	var b Builder
	var f Frontier
	if err := b.Build(&f, cfg, obs); err != nil {
		t.Fatal(err)
	}
	if f.Len() < 2 {
		t.Fatalf("frontier has %d points, want at least floor and all-max", f.Len())
	}
	for i := 1; i < f.Len(); i++ {
		if !(f.Watts[i] > f.Watts[i-1]) {
			t.Errorf("watts not strictly ascending at %d: %.4f then %.4f", i, f.Watts[i-1], f.Watts[i])
		}
		if f.Slow[i] > f.Slow[i-1] {
			t.Errorf("slowdown not non-increasing at %d: %.4f then %.4f", i, f.Slow[i-1], f.Slow[i])
		}
	}
	if !approx.Close(f.Slow[f.Len()-1], 1) {
		t.Errorf("all-max point slowdown %.6f, want 1", f.Slow[f.Len()-1])
	}
	steps, mem := f.Point(0)
	if mem != cfg.MemLadder.Steps()-1 {
		t.Errorf("floor memory step %d, want bottom %d", mem, cfg.MemLadder.Steps()-1)
	}
	for i, s := range steps {
		if s != cfg.CoreLadder.Steps()-1 {
			t.Errorf("floor core %d step %d, want bottom", i, s)
		}
	}
	// The top point is the cheapest configuration reaching best
	// performance; its steps need not be all-max (a free move can
	// dominate all-max at equal slowdown), but it must be valid.
	topSteps, topMem := f.Point(f.Len() - 1)
	if topMem < 0 || topMem >= cfg.MemLadder.Steps() || len(topSteps) != cfg.NCores {
		t.Errorf("top point invalid: mem=%d cores=%v", topMem, topSteps)
	}
}

// TestFrontierFloorMatchesPowerCapFloor pins the boundary contract the
// rebalancer relies on: the frontier's floor watts are bit-identical to
// the minimum-achievable power core.PowerCap checks feasibility against
// (both run the memoized table path), so an assignment at the floor is
// feasible rather than spuriously infeasible.
func TestFrontierFloorMatchesPowerCapFloor(t *testing.T) {
	cfg := testCfg(8)
	obs := mixObs(cfg, 0.5)
	var b Builder
	var f Frontier
	if err := b.Build(&f, cfg, obs); err != nil {
		t.Fatal(err)
	}
	pc, err := core.NewPowerCap(cfg, f.MinWatts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.DecideCapped(obs); err != nil {
		t.Errorf("cap at frontier floor %.6f W reported infeasible: %v", f.MinWatts(), err)
	}
	if err := pc.SetCap(math.Nextafter(f.MinWatts(), 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.DecideCapped(obs); !errors.Is(err, core.ErrCapInfeasible) {
		t.Errorf("cap one ulp below the floor: err = %v, want ErrCapInfeasible", err)
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	var b Builder
	var f Frontier
	if err := b.Build(&f, policy.Config{}, policy.Observation{}); err == nil {
		t.Error("invalid config accepted")
	}
	cfg := testCfg(4)
	if err := b.Build(&f, cfg, mixObs(testCfg(8), 0.5)); err == nil {
		t.Error("core-count mismatch accepted")
	}
}

func TestRebalancerSingleNode(t *testing.T) {
	cfg := testCfg(4)
	r := NewRebalancer(Fair)
	if err := r.AddNode("solo", cfg); err != nil {
		t.Fatal(err)
	}
	obs := []policy.Observation{mixObs(cfg, 0.3)}

	full := policy.NewEvaluator(cfg, obs[0]).Baseline().Power.Total
	eps, err := r.Epoch(full*1.1, obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 1 || eps[0].ID != "solo" {
		t.Fatalf("epochs = %+v", eps)
	}
	if eps[0].Clamped {
		t.Error("generous budget clamped the only node")
	}
	if !approx.Close(eps[0].MaxSlow, 1) {
		t.Errorf("generous budget slowdown %.4f, want 1", eps[0].MaxSlow)
	}
	if r.Rebalances() != 1 {
		t.Errorf("rebalances after first epoch = %d, want 1", r.Rebalances())
	}
	// Same mix again: assignment unchanged, no new rebalance counted.
	if _, err := r.Epoch(full*1.1, obs, nil); err != nil {
		t.Fatal(err)
	}
	if r.Rebalances() != 1 {
		t.Errorf("identical epoch counted as a rebalance: %d", r.Rebalances())
	}
}

func TestRebalancerZeroHeadroom(t *testing.T) {
	cfg := testCfg(4)
	r := NewRebalancer(Fair)
	for _, id := range []string{"a", "b", "c"} {
		if err := r.AddNode(id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	obs := []policy.Observation{mixObs(cfg, 0.2), mixObs(cfg, 0.5), mixObs(cfg, 0.9)}

	// Find the fleet floor by probing with an impossible budget.
	eps, err := r.Epoch(1e-3, obs, nil)
	if !errors.Is(err, ErrBudgetInfeasible) {
		t.Fatalf("err = %v, want ErrBudgetInfeasible", err)
	}
	floor := 0.0
	for _, e := range eps {
		floor += e.Assigned
		if !e.Clamped {
			t.Errorf("node %s not marked clamped under infeasible budget", e.ID)
		}
	}

	// Zero headroom: exactly the floor is feasible, everyone at minimum.
	eps, err = r.Epoch(floor, obs, nil)
	if err != nil {
		t.Fatalf("budget exactly at fleet floor: %v", err)
	}
	sum := 0.0
	for _, e := range eps {
		sum += e.Assigned
		if e.Clamped {
			t.Errorf("node %s clamped at zero headroom", e.ID)
		}
	}
	if sum > floor*(1+1e-12) {
		t.Errorf("assignments %.6f W exceed zero-headroom budget %.6f W", sum, floor)
	}
}

func TestRebalancerJoinLeaveConservesBudget(t *testing.T) {
	cfg := testCfg(4)
	r := NewRebalancer(Fair)
	for _, id := range []string{"a", "b", "c"} {
		if err := r.AddNode(id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	budget := 3.2 * policy.NewEvaluator(cfg, mixObs(cfg, 0.5)).Baseline().Power.Total

	obsFor := func(n int, epoch int) []policy.Observation {
		obs := make([]policy.Observation, n)
		for i := range obs {
			obs[i] = mixObs(cfg, math.Mod(0.2*float64(i+1)+0.1*float64(epoch), 1))
		}
		return obs
	}
	checkConserved := func(eps []NodeEpoch) {
		t.Helper()
		sum := 0.0
		for _, e := range eps {
			sum += e.Assigned
		}
		if sum > budget*(1+1e-12) {
			t.Errorf("assignments %.3f W exceed budget %.3f W", sum, budget)
		}
	}

	var eps []NodeEpoch
	var err error
	for epoch := 0; epoch < 2; epoch++ {
		if eps, err = r.Epoch(budget, obsFor(3, epoch), eps[:0]); err != nil {
			t.Fatal(err)
		}
		checkConserved(eps)
	}

	// A node joins mid-run.
	if err := r.AddNode("d", cfg); err != nil {
		t.Fatal(err)
	}
	if err := r.AddNode("d", cfg); err == nil {
		t.Error("duplicate join accepted")
	}
	before := r.Rebalances()
	if eps, err = r.Epoch(budget, obsFor(4, 2), eps[:0]); err != nil {
		t.Fatal(err)
	}
	checkConserved(eps)
	if len(eps) != 4 {
		t.Fatalf("%d epochs after join, want 4", len(eps))
	}
	if r.Rebalances() == before {
		t.Error("join did not register as a rebalance")
	}

	// A node leaves mid-run.
	if !r.RemoveNode("b") {
		t.Error("RemoveNode(b) reported absent")
	}
	if r.RemoveNode("b") {
		t.Error("double remove reported present")
	}
	if eps, err = r.Epoch(budget, obsFor(3, 3), eps[:0]); err != nil {
		t.Fatal(err)
	}
	checkConserved(eps)
	ids := r.NodeIDs(nil)
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "c" || ids[2] != "d" {
		t.Errorf("node IDs after leave = %v", ids)
	}
}

// TestRebalancerReplayBitIdentical drives two rebalancers through the same
// seeded epoch sequence — shifting mixes and a budget trace with a step
// down and a transient dip — and requires Float64bits-identical outcomes.
func TestRebalancerReplayBitIdentical(t *testing.T) {
	cfg := testCfg(4)
	const epochs = 8
	budgetAt := func(e int, full float64) float64 {
		switch {
		case e < 3:
			return full
		case e == 5:
			return full * 0.6 // transient dip
		default:
			return full * 0.8
		}
	}
	run := func() [][]NodeEpoch {
		r := NewRebalancer(Fair)
		for _, id := range []string{"n0", "n1", "n2"} {
			if err := r.AddNode(id, cfg); err != nil {
				t.Fatal(err)
			}
		}
		full := 3.0 * policy.NewEvaluator(cfg, mixObs(cfg, 0)).Baseline().Power.Total
		var hist [][]NodeEpoch
		for e := 0; e < epochs; e++ {
			obs := []policy.Observation{
				mixObs(cfg, math.Mod(0.13*float64(e), 1)),
				mixObs(cfg, math.Mod(0.31*float64(e)+0.4, 1)),
				mixObs(cfg, math.Mod(0.57*float64(e)+0.8, 1)),
			}
			eps, err := r.Epoch(budgetAt(e, full), obs, nil)
			if err != nil {
				t.Fatal(err)
			}
			hist = append(hist, eps)
		}
		return hist
	}
	h1, h2 := run(), run()
	for e := range h1 {
		for i := range h1[e] {
			a, b := h1[e][i], h2[e][i]
			if a.ID != b.ID || a.Clamped != b.Clamped ||
				math.Float64bits(a.Assigned) != math.Float64bits(b.Assigned) ||
				math.Float64bits(a.Power) != math.Float64bits(b.Power) ||
				math.Float64bits(a.MaxSlow) != math.Float64bits(b.MaxSlow) {
				t.Fatalf("epoch %d node %d diverged: %+v vs %+v", e, i, a, b)
			}
		}
	}
}

// TestRebalancerMatchesSerialReplica is the determinism gate of the
// per-node fan-out: eight nodes run the replay budget trace (steady, cut,
// dip) through Rebalancer.Epoch and through a serial replica made of the
// public calls — one shared Builder building every frontier in node order,
// Allocate, then SetCap and DecideCapped node by node — and every outcome
// must be Float64bits-identical. The nodes share one platform-table cache,
// as a fleet's do. make bit-identity runs it under -race at GOMAXPROCS=1
// and at the machine default.
func TestRebalancerMatchesSerialReplica(t *testing.T) {
	const nodes, epochs = 8, 8
	cfg := testCfg(8)
	cfg.Tables = &policy.TableCache{}
	obsAt := func(e int) []policy.Observation {
		obs := make([]policy.Observation, nodes)
		for i := range obs {
			obs[i] = mixObs(cfg, math.Mod(0.17*float64(i)+0.29*float64(e), 1))
		}
		return obs
	}
	full := float64(nodes) * policy.NewEvaluator(cfg, mixObs(cfg, 0)).Baseline().Power.Total
	budgetAt := func(e int) float64 {
		switch {
		case e < 3:
			return full
		case e == 5:
			return full * 0.6 // transient dip
		default:
			return full * 0.8
		}
	}

	r := NewRebalancer(Fair)
	ids := make([]string, nodes)
	caps := make([]*core.PowerCap, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i)
		if err := r.AddNode(ids[i], cfg); err != nil {
			t.Fatal(err)
		}
		pc, err := core.NewPowerCap(cfg, math.MaxFloat64)
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = pc
	}
	var b Builder
	alloc := Allocator{Strategy: Fair}
	fronts := make([]Frontier, nodes)
	var got []NodeEpoch
	for e := 0; e < epochs; e++ {
		obs := obsAt(e)
		var err error
		got, err = r.Epoch(budgetAt(e), obs, got[:0])
		if err != nil {
			t.Fatal(err)
		}

		anodes := make([]Node, nodes)
		for i := range fronts {
			if err := b.Build(&fronts[i], cfg, obs[i]); err != nil {
				t.Fatal(err)
			}
			anodes[i] = Node{ID: ids[i], F: &fronts[i]}
		}
		assigns, aerr := alloc.Allocate(budgetAt(e), anodes, nil)
		if aerr != nil {
			t.Fatal(aerr)
		}
		for i := range caps {
			if err := caps[i].SetCap(assigns[i].Watts); err != nil {
				t.Fatal(err)
			}
			d, derr := caps[i].DecideCapped(obs[i])
			if derr != nil && !errors.Is(derr, core.ErrCapInfeasible) {
				t.Fatal(derr)
			}
			ev := policy.Evaluator{UseTables: true}
			ev.Reset(cfg, obs[i])
			var want policy.Eval
			ev.EvaluateInto(&want, d.CoreSteps, d.MemStep)
			g := got[i]
			if g.ID != ids[i] || g.Clamped != (derr != nil) ||
				math.Float64bits(g.Assigned) != math.Float64bits(assigns[i].Watts) ||
				math.Float64bits(g.Power) != math.Float64bits(want.Power.Total) ||
				math.Float64bits(g.MaxSlow) != math.Float64bits(want.MaxSlow) {
				t.Fatalf("epoch %d node %d: rebalancer %+v, serial replica {Assigned:%v Power:%v MaxSlow:%v Clamped:%t}",
					e, i, g, assigns[i].Watts, want.Power.Total, want.MaxSlow, derr != nil)
			}
		}
	}
}

func TestRebalancerErrors(t *testing.T) {
	cfg := testCfg(4)
	r := NewRebalancer(Fair)
	if err := r.AddNode("", cfg); err == nil {
		t.Error("empty node ID accepted")
	}
	if err := r.AddNode("a", policy.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	if err := r.AddNode("a", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Epoch(100, nil, nil); err == nil {
		t.Error("observation-count mismatch accepted")
	}
	empty := NewRebalancer(Fair)
	if eps, err := empty.Epoch(100, nil, nil); err != nil || len(eps) != 0 {
		t.Errorf("empty fleet epoch: %v, %d entries", err, len(eps))
	}
}
