package fastcap

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"coscale/internal/core"
	"coscale/internal/policy"
)

// rebuildReplica is the rebalancer without reuse: every epoch it builds
// every node's frontier from scratch, allocates, and runs SetCap,
// DecideCapped and the final evaluation for every node, serially and only
// through the public calls.
type rebuildReplica struct {
	cfg   policy.Config
	alloc Allocator
	b     Builder
	ids   []string
	caps  []*core.PowerCap
}

func (r *rebuildReplica) add(t *testing.T, id string) {
	t.Helper()
	pc, err := core.NewPowerCap(r.cfg, math.MaxFloat64)
	if err != nil {
		t.Fatal(err)
	}
	r.ids = append(r.ids, id)
	r.caps = append(r.caps, pc)
}

func (r *rebuildReplica) remove(id string) {
	for i := range r.ids {
		if r.ids[i] == id {
			r.ids = append(r.ids[:i], r.ids[i+1:]...)
			r.caps = append(r.caps[:i], r.caps[i+1:]...)
			return
		}
	}
}

func (r *rebuildReplica) epoch(budget float64, obs []policy.Observation) ([]NodeEpoch, error) {
	fronts := make([]Frontier, len(r.ids))
	anodes := make([]Node, len(r.ids))
	for i := range fronts {
		if err := r.b.Build(&fronts[i], r.cfg, obs[i]); err != nil {
			return nil, err
		}
		anodes[i] = Node{ID: r.ids[i], F: &fronts[i]}
	}
	assigns, aerr := r.alloc.Allocate(budget, anodes, nil)
	if aerr != nil && !errors.Is(aerr, ErrBudgetInfeasible) {
		return nil, aerr
	}
	var out []NodeEpoch
	for i, pc := range r.caps {
		if err := pc.SetCap(assigns[i].Watts); err != nil {
			return nil, err
		}
		d, derr := pc.DecideCapped(obs[i])
		if derr != nil && !errors.Is(derr, core.ErrCapInfeasible) {
			return nil, derr
		}
		var ev policy.Evaluator
		ev.Reset(r.cfg, obs[i])
		var e policy.Eval
		ev.EvaluateInto(&e, d.CoreSteps, d.MemStep)
		out = append(out, NodeEpoch{ID: r.ids[i], Assigned: assigns[i].Watts, Power: e.Power.Total,
			MaxSlow: e.MaxSlow, Clamped: aerr != nil || derr != nil})
	}
	return out, aerr
}

func sameEpochs(a, b []NodeEpoch) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Clamped != b[i].Clamped || bits(a[i].Assigned) != bits(b[i].Assigned) ||
			bits(a[i].Power) != bits(b[i].Power) || bits(a[i].MaxSlow) != bits(b[i].MaxSlow) {
			return false
		}
	}
	return true
}

// TestRebalancerReuseMatchesRebuild drives an eight-node rebalancer through
// a trajectory built to exercise every reuse decision — held phases,
// budget-only changes, one node changing, the caller mutating its
// observation slices in place, +0 vs -0 and NaN fields, a build error and
// its recovery, and a node leaving and joining — and requires every epoch
// to be Float64bits-identical to a replica that rebuilds and re-decides
// everything, with exactly the expected number of frontier builds. make
// bit-identity runs it under -race at GOMAXPROCS=1 and at the default.
func TestRebalancerReuseMatchesRebuild(t *testing.T) {
	const nodes = 8
	cfg := testCfg(8)
	cfg.Tables = &policy.TableCache{}
	full := float64(nodes) * policy.NewEvaluator(cfg, mixObs(cfg, 0)).Baseline().Power.Total
	frac := func(i int) float64 { return math.Mod(0.17*float64(i)+0.05, 1) }

	for _, s := range []Strategy{Fair, Greedy, Uniform} {
		t.Run(s.String(), func(t *testing.T) {
			r := NewRebalancer(s)
			rep := &rebuildReplica{cfg: cfg, alloc: Allocator{Strategy: s}}
			// obs is the caller's buffer: entries are replaced or mutated
			// in place between epochs, as an engine reusing its
			// observation storage would.
			var obs []policy.Observation
			for i := range nodes {
				id := fmt.Sprintf("node-%02d", i)
				if err := r.AddNode(id, cfg); err != nil {
					t.Fatal(err)
				}
				rep.add(t, id)
				obs = append(obs, mixObs(cfg, frac(i)))
			}
			steps := []struct {
				name   string
				budget float64
				change func()
				builds int64 // frontier builds this epoch
			}{
				{"first epoch", full, func() {}, nodes},
				{"held phases, fresh slices", full, func() {
					for i := range obs {
						obs[i] = mixObs(cfg, frac(i))
					}
				}, 0},
				{"budget cut", 0.8 * full, func() {}, 0},
				{"held budget", 0.8 * full, func() {}, 0},
				{"budget dip", 0.6 * full, func() {}, 0},
				{"one node changes", 0.6 * full, func() { obs[3] = mixObs(cfg, 0.93) }, 1},
				// Node 3 was just built from these very slices.
				{"in-place mutation", 0.8 * full, func() { obs[3].Cores[2].Stats.Beta *= 1.5 }, 1},
				{"in-place core steps", 0.8 * full, func() { obs[3].CoreSteps[1] = 1 }, 1},
				{"+0 field", 0.8 * full, func() { obs[1].Cores[0].Mix.Branch = 0 }, 1},
				{"-0 field", 0.8 * full, func() { obs[1].Cores[0].Mix.Branch = math.Copysign(0, -1) }, 1},
				{"NaN field", 0.8 * full, func() { obs[2].Cores[4].IPS = math.NaN() }, 1},
				{"NaN field held", 0.8 * full, func() {}, 1},
				{"NaN cleared", 0.8 * full, func() { obs[2].Cores[4].IPS = 1e9 }, 1},
				{"build error", 0.8 * full, func() { obs[4].Cores = obs[4].Cores[:4] }, 1},
				{"recovery", 0.8 * full, func() { obs[4] = mixObs(cfg, frac(4)) }, 1},
				{"node leaves", 0.8 * full, func() {
					r.RemoveNode("node-02")
					rep.remove("node-02")
					obs = append(obs[:2], obs[3:]...)
				}, 0},
				{"node joins", 0.8 * full, func() {
					if err := r.AddNode("node-08", cfg); err != nil {
						t.Fatal(err)
					}
					rep.add(t, "node-08")
					obs = append(obs, mixObs(cfg, 0.41))
				}, 1},
				{"held after join", full, func() {}, 0},
				{"infeasible budget", 1e-3, func() {}, 0},
				{"infeasible held", 1e-3, func() {}, 0},
				{"budget restored", full, func() {}, 0},
			}
			var got []NodeEpoch
			for e, st := range steps {
				st.change()
				b0 := r.Builds()
				var err error
				got, err = r.Epoch(st.budget, obs, got[:0])
				want, werr := rep.epoch(st.budget, obs)
				if b := r.Builds() - b0; b != st.builds {
					t.Errorf("epoch %d (%s): %d frontier builds, want %d", e, st.name, b, st.builds)
				}
				if (err == nil) != (werr == nil) || errors.Is(err, ErrBudgetInfeasible) != errors.Is(werr, ErrBudgetInfeasible) {
					t.Fatalf("epoch %d (%s): rebalancer error %v, replica error %v", e, st.name, err, werr)
				}
				if err != nil && !errors.Is(err, ErrBudgetInfeasible) {
					continue
				}
				if !sameEpochs(got, want) {
					t.Fatalf("epoch %d (%s):\nreuse   %+v\nrebuild %+v", e, st.name, got, want)
				}
			}
		})
	}
}

// TestRebalancerRewalkMatchesSerialReplica re-profiles one node per epoch
// under a budget that rises and falls, so each build phase leaves lanes
// idle and re-walks the rebuilt node's controller under a guess at its new
// assignment that both overshoots and falls short. Every epoch must be
// Float64bits-identical to the serial rebuild replica at GOMAXPROCS 1, 2, 4
// and 8, and the re-walks must have run (other evaluation counts than at
// 1). A final epoch that re-profiles every node leaves no lane idle, so it
// must evaluate the same points at every GOMAXPROCS. make bit-identity runs
// it under -race.
func TestRebalancerRewalkMatchesSerialReplica(t *testing.T) {
	const nodes, epochs = 8, 17
	cfg := testCfg(8)
	cfg.Tables = &policy.TableCache{}
	full := float64(nodes) * policy.NewEvaluator(cfg, mixObs(cfg, 0)).Baseline().Power.Total
	shares := [...]float64{1, 0.8, 0.6, 0.9, 0.65, 1, 0.7, 0.85}
	mix := func(i, e int) float64 { return math.Mod(0.17*float64(i)+0.31*float64(e)+0.05, 1) }

	// run returns the points evaluated by the one-node epochs and by the
	// final every-node epoch.
	run := func(procs int) (lone, every int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := NewRebalancer(Fair)
		rep := &rebuildReplica{cfg: cfg, alloc: Allocator{Strategy: Fair}}
		obs := make([]policy.Observation, nodes)
		for i := range obs {
			id := fmt.Sprintf("node-%02d", i)
			if err := r.AddNode(id, cfg); err != nil {
				t.Fatal(err)
			}
			rep.add(t, id)
			obs[i] = mixObs(cfg, mix(i, 0))
		}
		var got []NodeEpoch
		epoch := func(e int, budget float64) {
			var err error
			got, err = r.Epoch(budget, obs, got[:0])
			want, werr := rep.epoch(budget, obs)
			if err != nil || werr != nil {
				t.Fatalf("GOMAXPROCS=%d epoch %d: rebalancer error %v, replica error %v", procs, e, err, werr)
			}
			if !sameEpochs(got, want) {
				t.Fatalf("GOMAXPROCS=%d epoch %d:\nrebalancer %+v\nreplica    %+v", procs, e, got, want)
			}
		}
		epoch(0, full)
		e0 := r.Evals()
		for e := 1; e < epochs-1; e++ {
			obs[e%nodes] = mixObs(cfg, mix(e%nodes, e))
			epoch(e, shares[e%len(shares)]*full)
		}
		e1 := r.Evals()
		for i := range obs {
			obs[i] = mixObs(cfg, mix(i, epochs-1))
		}
		epoch(epochs-1, 0.75*full)
		return e1 - e0, r.Evals() - e1
	}

	lone1, every1 := run(1)
	for _, procs := range []int{2, 4, 8} {
		lone, every := run(procs)
		if lone == lone1 {
			t.Errorf("GOMAXPROCS=%d: one-node epochs evaluated %d points, as at GOMAXPROCS=1: no re-walk ran", procs, lone)
		}
		if every != every1 {
			t.Errorf("GOMAXPROCS=%d: the every-node epoch evaluated %d points, %d at GOMAXPROCS=1", procs, every, every1)
		}
	}
}

// TestRebalancerStableEpochZeroAlloc pins the fully reused epoch — every
// observation and the budget unchanged — at zero allocations: no frontier
// is rebuilt, no decision rerun and no lane started.
func TestRebalancerStableEpochZeroAlloc(t *testing.T) {
	const nodes = 8
	cfg := testCfg(8)
	cfg.Tables = &policy.TableCache{}
	r := NewRebalancer(Fair)
	obs := make([]policy.Observation, nodes)
	for i := range obs {
		if err := r.AddNode(fmt.Sprintf("node-%02d", i), cfg); err != nil {
			t.Fatal(err)
		}
		obs[i] = mixObs(cfg, math.Mod(0.17*float64(i), 1))
	}
	budget := 0.8 * float64(nodes) * policy.NewEvaluator(cfg, mixObs(cfg, 0)).Baseline().Power.Total
	eps, err := r.Epoch(budget, obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	b0 := r.Builds()
	allocs := testing.AllocsPerRun(50, func() {
		if eps, err = r.Epoch(budget, obs, eps[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("stable epoch allocates %.1f times, want 0", allocs)
	}
	if b := r.Builds() - b0; b != 0 {
		t.Errorf("stable epochs rebuilt %d frontiers", b)
	}
}
