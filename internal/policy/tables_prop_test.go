package policy_test

// Property test for the memoized per-epoch prediction tables (DESIGN.md §10):
// Evaluator, which evaluates only on the tables, must be *bit-identical* —
// not approximately equal, identical — to the direct model, the test-only
// reference in direct_test.go that reads no table, across core counts,
// ladder sizes, and randomized profiling observations. The tables are
// rebuilt from the same model with the same operation order, so any
// divergence is a bug in the memoization, and the first diverging seed is
// reproducible from the iteration number printed on failure.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"coscale/internal/core"
	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/trace"
)

// propCfg builds a config with coreSteps/memSteps-point ladders.
func propCfg(n, coreSteps, memSteps int) policy.Config {
	return policy.Config{
		NCores:     n,
		CoreLadder: mustLadder(freq.CoreLadderN(coreSteps)),
		MemLadder:  mustLadder(freq.MemLadderN(memSteps)),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(n),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
	}
}

// randObs draws a random but physically plausible profiling observation:
// per-core intensities spanning compute-bound to memory-bound, MLP both at
// the ==1 fast path and above it, and varied aggregate memory traffic.
func randObs(rng *trace.Rand, n int) policy.Observation {
	obs := policy.Observation{
		Window:     100e-6 + rng.Float64()*400e-6,
		CoreSteps:  policy.ZeroSteps(n),
		Cores:      make([]policy.CoreObs, n),
		MemRate:    1e8 + rng.Float64()*4e8,
		MemLatency: 40e-9 + rng.Float64()*80e-9,
		UtilBus:    0.1 + rng.Float64()*0.6,
		BusyFrac:   0.2 + rng.Float64()*0.7,
	}
	for i := range obs.Cores {
		beta := 0.0002 + rng.Float64()*0.02
		mlp := 1.0
		if rng.Float64() < 0.3 {
			mlp = 1 + rng.Float64()*3
		}
		obs.Cores[i] = policy.CoreObs{
			Instructions: 100_000 + rng.Uint64()%2_000_000,
			Stats: perf.CoreStats{
				CPIBase:     0.9 + rng.Float64()*0.8,
				Alpha:       0.002 + rng.Float64()*0.03,
				StallL2:     7.5e-9,
				Beta:        beta,
				MemPerInstr: beta * (1.1 + rng.Float64()),
				MLP:         mlp,
			},
			L2PerInstr: 0.005 + rng.Float64()*0.03,
			Mix: trace.InstrMix{ALU: 0.2 + rng.Float64()*0.2, FPU: rng.Float64() * 0.3,
				Branch: 0.05 + rng.Float64()*0.1, LoadStore: 0.2 + rng.Float64()*0.2},
			IPS: 1e9 + rng.Float64()*3e9,
		}
	}
	return obs
}

func mustLadder(l *freq.Ladder, err error) *freq.Ladder {
	if err != nil {
		panic(err)
	}
	return l
}

// requireBitsEqual compares two predictions field by field with
// math.Float64bits — the bit pattern, not tolerance-based closeness.
func requireBitsEqual(t *testing.T, ctx string, tab, dir policy.Eval) {
	t.Helper()
	eq := func(field string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s diverges: table %v (%#x) vs direct %v (%#x)",
				ctx, field, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	eq("SER", tab.SER, dir.SER)
	eq("MaxSlow", tab.MaxSlow, dir.MaxSlow)
	eq("Power.CPU", tab.Power.CPU, dir.Power.CPU)
	eq("Power.L2", tab.Power.L2, dir.Power.L2)
	eq("Power.Mem", tab.Power.Mem, dir.Power.Mem)
	eq("Power.Rest", tab.Power.Rest, dir.Power.Rest)
	eq("Power.Total", tab.Power.Total, dir.Power.Total)
	eq("MemLoad.Latency", tab.MemLoad.Latency, dir.MemLoad.Latency)
	eq("MemLoad.XiBus", tab.MemLoad.XiBus, dir.MemLoad.XiBus)
	eq("MemLoad.XiBank", tab.MemLoad.XiBank, dir.MemLoad.XiBank)
	eq("MemLoad.UtilBus", tab.MemLoad.UtilBus, dir.MemLoad.UtilBus)
	eq("MemLoad.UtilBank", tab.MemLoad.UtilBank, dir.MemLoad.UtilBank)
	if len(tab.TPI) != len(dir.TPI) {
		t.Fatalf("%s: TPI length %d vs %d", ctx, len(tab.TPI), len(dir.TPI))
	}
	for i := range dir.TPI {
		if math.Float64bits(tab.TPI[i]) != math.Float64bits(dir.TPI[i]) {
			t.Fatalf("%s: TPI[%d] diverges: %v vs %v", ctx, i, tab.TPI[i], dir.TPI[i])
		}
		if math.Float64bits(tab.Slowdown[i]) != math.Float64bits(dir.Slowdown[i]) {
			t.Fatalf("%s: Slowdown[%d] diverges: %v vs %v", ctx, i, tab.Slowdown[i], dir.Slowdown[i])
		}
	}
}

// TestTablesBitIdenticalToDirect is the memoization cross-check. CoScale's
// marginal kernel reads the tables through exactly two lookups, so both are
// checked against the direct model for every core and every non-bottom
// step: StepTable.TPIPairAt(i, s, lat) must equal CoreStats.TPI at Hz(s)
// and Hz(s+1), and CoreTable.PowerAt must equal CoreModel.Power at steps s
// and s+1 for the instruction rates the kernel feeds it — at the joint
// latencies of the all-max point and of the decision point, which the walk
// visits, and at a random one. The evaluator must also predict
// bit-identically to the direct reference at the all-max baseline, at the
// controller's decision point and at a random point. The controller
// Observes every epoch so accumulated slack, and with it the decision
// point, varies.
func TestTablesBitIdenticalToDirect(t *testing.T) {
	rng := trace.NewRand(2026)
	const perCombo = 35
	iters := 0
	for _, n := range []int{4, 16, 64, 128} {
		for _, lad := range []struct{ core, mem int }{{10, 10}, {5, 3}, {16, 8}} {
			cfg := propCfg(n, lad.core, lad.mem)
			cs, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var evTab policy.Evaluator
			for k := 0; k < perCombo; k++ {
				iters++
				ctx := fmt.Sprintf("iter %d (n=%d ladders %d/%d)", iters, n, lad.core, lad.mem)
				obs := randObs(rng, n)
				d := cs.Decide(obs)

				evTab.Reset(cfg, obs)
				evDir := policy.NewDirectEvaluator(cfg, obs)
				requireBitsEqual(t, ctx+" baseline", evTab.Baseline(), evDir.Baseline())
				var eTab policy.Eval
				evTab.EvaluateInto(&eTab, d.CoreSteps, d.MemStep)
				requireBitsEqual(t, ctx+" decision point", eTab, evDir.Evaluate(d.CoreSteps, d.MemStep))
				lats := []float64{evTab.Baseline().MemLoad.Latency, eTab.MemLoad.Latency, 20e-9 + rng.Float64()*200e-9}
				requireLookupsEqual(t, ctx, cfg, obs, &evTab, lats)

				steps := make([]int, n)
				for i := range steps {
					steps[i] = int(rng.Intn(uint64(cfg.CoreLadder.Steps())))
				}
				memStep := int(rng.Intn(uint64(cfg.MemLadder.Steps())))
				evTab.EvaluateInto(&eTab, steps, memStep)
				requireBitsEqual(t, ctx+" random point", eTab, evDir.Evaluate(steps, memStep))

				cs.Observe(obs)
			}
		}
	}
	if iters < 400 {
		t.Fatalf("only %d property iterations, want >= 400", iters)
	}
}

// requireLookupsEqual checks the marginal kernel's two table lookups
// against the direct model, by Float64bits, for every core and every
// non-bottom step at each latency.
func requireLookupsEqual(t *testing.T, ctx string, cfg policy.Config, obs policy.Observation, ev *policy.Evaluator, lats []float64) {
	t.Helper()
	tbl, ptbl := ev.Tables()
	lad := cfg.CoreLadder
	bits := math.Float64bits
	for _, lat := range lats {
		for i, c := range obs.Cores {
			st, mix := c.Stats, c.Mix
			for s := 0; !lad.Bottom(s); s++ {
				cur, next := tbl.TPIPairAt(i, s, lat)
				wantCur, wantNext := st.TPI(lad.Hz(s), lat), st.TPI(lad.Hz(s+1), lat)
				if bits(cur) != bits(wantCur) || bits(next) != bits(wantNext) {
					t.Fatalf("%s: core %d step %d lat %v: TPIPairAt (%v, %v), direct (%v, %v)",
						ctx, i, s, lat, cur, next, wantCur, wantNext)
				}
				for _, p := range []struct {
					step int
					ips  float64
				}{{s, 1 / cur}, {s + 1, 1 / next}} {
					got := ptbl.PowerAt(p.step, i, p.ips)
					want := cfg.Power.Core.Power(lad.Volts(p.step), lad.Hz(p.step), p.ips, mix)
					if bits(got) != bits(want) {
						t.Fatalf("%s: core %d step %d ips %v: PowerAt %v, direct %v", ctx, i, p.step, p.ips, got, want)
					}
				}
			}
		}
	}
}
