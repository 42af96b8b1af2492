package fastcap

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"coscale/internal/cache"
	"coscale/internal/core"
	"coscale/internal/freq"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// refBuild is Builder.Build as it stood before the frontier walk moved into
// core.CapWalk, kept as the reference oracle of the equivalence property: a
// fresh evaluator per build, a full Evaluate per candidate and the
// builder's own selection loop — memory first, then cores ascending, the
// first of equal utilities winning — run to the ladder floor, followed by
// the same Pareto filter over the visited points.
func refBuild(cfg policy.Config, obs policy.Observation) Frontier {
	ev := policy.NewEvaluator(cfg, obs)
	type visit struct {
		steps       []int
		mem         int
		watts, slow float64
	}
	steps := policy.ZeroSteps(cfg.NCores)
	mem := 0
	var cur policy.Eval
	ev.EvaluateBaselineInto(&cur)
	visits := []visit{{append([]int(nil), steps...), mem, cur.Power.Total, cur.MaxSlow}}
	for {
		bestU := math.Inf(-1)
		found := false
		var next visit
		var nextEval policy.Eval
		consider := func(s []int, m int) {
			e := ev.Evaluate(s, m)
			if u := core.Utility(cur.Power.Total-e.Power.Total, e.MaxSlow-cur.MaxSlow); u > bestU || !found {
				bestU, found = u, true
				next, nextEval = visit{s, m, e.Power.Total, e.MaxSlow}, e
			}
		}
		if !cfg.MemLadder.Bottom(mem) {
			consider(append([]int(nil), steps...), mem+1)
		}
		for i := range steps {
			if cfg.CoreLadder.Bottom(steps[i]) {
				continue
			}
			s := append([]int(nil), steps...)
			s[i]++
			consider(s, mem)
		}
		if !found {
			break
		}
		steps, mem, cur = next.steps, next.mem, nextEval
		visits = append(visits, next)
	}

	// Ascending watts, later visits first among equal watts; keep only
	// strict improvements in both watts and slowdown.
	order := make([]int, len(visits))
	for i := range order {
		order[i] = len(visits) - 1 - i
	}
	sort.SliceStable(order, func(a, b int) bool { return visits[order[a]].watts < visits[order[b]].watts })
	var f Frontier
	for _, id := range order {
		v := visits[id]
		if k := len(f.Watts); k > 0 && (v.watts <= f.Watts[k-1] || v.slow >= f.Slow[k-1]) {
			continue
		}
		f.Watts = append(f.Watts, v.watts)
		f.Slow = append(f.Slow, v.slow)
		f.steps = append(f.steps, v.steps)
		f.mems = append(f.mems, v.mem)
	}
	return f
}

// workloadObs synthesizes a node's profiling observation for one Table 1
// mix at phase fraction frac: each core samples its application's profile,
// the shared LLC splits capacity by access weight, and the solver at
// maximum frequencies supplies the counters.
func workloadObs(t *testing.T, cfg policy.Config, mix workload.Mix, llc *cache.ShareModel, frac float64) policy.Observation {
	t.Helper()
	n := cfg.NCores
	weights := make([]float64, n)
	profiles := make([]*trace.AppProfile, n)
	for i := range profiles {
		p, err := mix.AppForCore(i)
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = p
		weights[i] = p.At(frac).L2APKI
	}
	shares := llc.Shares(weights)
	stats := make([]perf.CoreStats, n)
	for i, p := range profiles {
		s := p.At(frac)
		mpki := p.MPKIAt(frac, shares[i])
		stats[i] = perf.CoreStats{CPIBase: s.CPIBase, Alpha: s.L2APKI / 1000, StallL2: cache.DefaultHitTime,
			Beta: mpki / 1000, MemPerInstr: (mpki + mpki*s.DirtyFrac) / 1000, MLP: s.MLP}
	}
	obs := synthObs(cfg, stats)
	for i, p := range profiles {
		obs.Cores[i].Mix = p.At(frac).Mix
	}
	return obs
}

// TestBuilderMatchesReferenceWalk is the equivalence property of the
// frontier built on core.CapWalk: over all 16 mixes, several phase
// fractions, Gamma 0 and 0.10 and three ladder shapes, every Frontier one
// reused Builder produces must match the reference walk's Float64bits-
// exactly in watts and slowdown, and in each point's core and memory steps.
func TestBuilderMatchesReferenceWalk(t *testing.T) {
	llc := cache.NewShareModel(cache.DefaultSizeMB)
	var b Builder
	var f Frontier
	builds := 0
	for _, name := range workload.Names() {
		mix, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, lad := range []struct{ core, mem int }{{10, 10}, {5, 3}, {16, 8}} {
			cfg := testCfg(mix.Cores())
			if cfg.CoreLadder, err = freq.CoreLadderN(lad.core); err != nil {
				t.Fatal(err)
			}
			if cfg.MemLadder, err = freq.MemLadderN(lad.mem); err != nil {
				t.Fatal(err)
			}
			for _, gamma := range []float64{0, 0.10} {
				cfg.Gamma = gamma
				for _, frac := range []float64{0.1, 0.45, 0.8} {
					obs := workloadObs(t, cfg, mix, llc, frac)
					if err := b.Build(&f, cfg, obs); err != nil {
						t.Fatal(err)
					}
					ctx := fmt.Sprintf("%s ladders %d/%d gamma=%g frac=%g", name, lad.core, lad.mem, gamma, frac)
					requireFrontierBits(t, ctx, &f, refBuild(cfg, obs))
					builds++
				}
			}
		}
	}
	if builds != 16*3*2*3 {
		t.Fatalf("grid ran %d builds, want %d", builds, 16*3*2*3)
	}
}

// requireFrontierBits fails unless got and want hold the same points, with
// watts and slowdown compared by Float64bits.
func requireFrontierBits(t *testing.T, ctx string, got *Frontier, want Frontier) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d frontier points, reference %d", ctx, got.Len(), want.Len())
	}
	bits := math.Float64bits
	for i := range want.Watts {
		if bits(got.Watts[i]) != bits(want.Watts[i]) || bits(got.Slow[i]) != bits(want.Slow[i]) {
			t.Fatalf("%s: point %d is (%v W, %v), reference (%v W, %v)",
				ctx, i, got.Watts[i], got.Slow[i], want.Watts[i], want.Slow[i])
		}
		steps, mem := got.Point(i)
		wantSteps, wantMem := want.Point(i)
		if mem != wantMem || !slices.Equal(steps, wantSteps) {
			t.Fatalf("%s: point %d at steps %v mem %d, reference %v mem %d",
				ctx, i, steps, mem, wantSteps, wantMem)
		}
	}
}
