package experiments

import (
	"testing"
	"time"

	"coscale/internal/core"
	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/sim"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// SearchBenchObs builds the synthetic profiling observation behind the §3.1
// search-cost benchmarks (BenchSearch*Cores, BenchSearchWarm*Cores): n cores
// with deterministic pseudo-random memory intensities on the paper's default
// system.
func SearchBenchObs(n int) (policy.Config, policy.Observation) {
	return SearchBenchObsSeed(n, 11)
}

// SearchBenchObsSeed is SearchBenchObs with the intensity-drawing seed
// exposed, for the load generator's control-1024 workload, which cycles a
// 1024-core controller through several distinct (but still deterministic)
// observations. Seed 11 reproduces SearchBenchObs exactly.
func SearchBenchObsSeed(n int, seed uint64) (policy.Config, policy.Observation) {
	cfg := policy.Config{
		NCores:     n,
		CoreLadder: freq.DefaultCoreLadder(),
		MemLadder:  freq.DefaultMemLadder(),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(n),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
	}
	obs := policy.Observation{
		Window:    300e-6,
		CoreSteps: policy.ZeroSteps(n),
		Cores:     make([]policy.CoreObs, n),
		MemRate:   2e8, MemLatency: 60e-9, UtilBus: 0.3, BusyFrac: 0.6,
	}
	rng := trace.NewRand(seed)
	for i := range obs.Cores {
		beta := 0.0005 + rng.Float64()*0.01
		obs.Cores[i] = policy.CoreObs{
			Instructions: 1_000_000,
			Stats: perf.CoreStats{CPIBase: 1.1 + rng.Float64()*0.4, Alpha: 0.01,
				StallL2: 7.5e-9, Beta: beta, MemPerInstr: beta * 1.4, MLP: 1},
			L2PerInstr: 0.01,
			Mix:        trace.InstrMix{ALU: 0.3, FPU: 0.2, Branch: 0.1, LoadStore: 0.3},
			IPS:        2.5e9,
		}
	}
	return cfg, obs
}

// The headline benchmark bodies below and in fastcap.go are each defined
// once: the root package's BenchmarkX and cmd/coscale-bench's row X both
// run BenchX.

// BenchSearch16Cores through BenchSearch1024Cores time one cold §3.1 search
// on SearchBenchObs(n). The paper measures <5 µs at 16 cores and projects
// 83/360 µs at 64/128 cores.
func BenchSearch16Cores(b *testing.B)   { benchSearch(b, 16, false) }
func BenchSearch64Cores(b *testing.B)   { benchSearch(b, 64, false) }
func BenchSearch128Cores(b *testing.B)  { benchSearch(b, 128, false) }
func BenchSearch256Cores(b *testing.B)  { benchSearch(b, 256, false) }
func BenchSearch512Cores(b *testing.B)  { benchSearch(b, 512, false) }
func BenchSearch1024Cores(b *testing.B) { benchSearch(b, 1024, false) }

// BenchSearchWarm128Cores through BenchSearchWarm1024Cores time the warm-hit
// decision path (DESIGN.md §14): every timed Decide classifies the epoch as
// stable, seeds from the previous solution and serves its marginals from the
// snapshot table. The delta to the cold rows is the warm-start saving on a
// perfectly stable phase — its upper bound.
func BenchSearchWarm128Cores(b *testing.B)  { benchSearch(b, 128, true) }
func BenchSearchWarm512Cores(b *testing.B)  { benchSearch(b, 512, true) }
func BenchSearchWarm1024Cores(b *testing.B) { benchSearch(b, 1024, true) }

// benchSearch times Decide on SearchBenchObs(n) after one untimed Decide,
// which sizes the first-call scratch and, when warm, primes the snapshot
// table and phase signature. It reports the last search's committed moves,
// ns/move and per-core marginal evaluations: the walk takes more moves at
// higher core counts, so ns/op alone conflates walk length with per-move
// cost, and ns/move is the sub-linear-scaling figure of merit (DESIGN.md
// §10).
func benchSearch(b *testing.B, n int, warm bool) {
	cfg, obs := SearchBenchObs(n)
	cs, err := core.NewWithOptions(cfg, core.Options{WarmStart: warm})
	if err != nil {
		b.Fatal(err)
	}
	cs.Decide(obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Decide(obs)
	}
	b.StopTimer()
	st := cs.SearchStats()
	if warm && st.WarmHits != 1 {
		b.Fatalf("warm benchmark fell back to the cold search: %+v", st)
	}
	if st.Moves > 0 {
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(st.Moves), "moves")
		b.ReportMetric(perOp/float64(st.Moves), "ns/move")
	}
	b.ReportMetric(float64(st.CoreEvals), "evals")
}

// epochBenchBudget is BenchEpochSimulation's per-application instruction
// budget.
const epochBenchBudget = 50_000_000

// BenchEpochSimulation measures raw fast-backend throughput on MID1 under
// CoScale in steady state: the engine and controller are built once and
// rewound per iteration (both Resets are bit-identity-preserving), so the
// number is simulation throughput rather than per-run construction — trace
// parsing, ladder building and scratch growth all happen before the timer
// starts.
func BenchEpochSimulation(b *testing.B) {
	mix, err := workload.Get("MID1")
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.Config{Mix: mix, InstrBudget: epochBenchBudget}
	cs, err := core.New(sc.PolicyConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc.Policy = cs
	eng, err := sim.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		cs.Reset()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
