package coscale

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus the §3.1 search-cost measurements and the design
// ablations. Each figure benchmark regenerates the corresponding rows/series
// and reports the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Benchmarks use a reduced per-application
// instruction budget (the paper's 100M SimPoints shrink to 50M) so the full
// suite completes in a couple of minutes; EXPERIMENTS.md records full-budget
// numbers.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"coscale/internal/core"
	"coscale/internal/dram"
	"coscale/internal/experiments"
	"coscale/internal/fastcap"
	"coscale/internal/fleet"
	"coscale/internal/policy"
	"coscale/internal/sim"
	"coscale/internal/trace"
)

const benchBudget = 50_000_000

func BenchmarkTable1_WorkloadCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var worst float64
			for _, row := range rows {
				rel := math.Abs(row.MPKI-row.PaperMPKI) / row.PaperMPKI
				if rel > worst {
					worst = rel
				}
			}
			b.ReportMetric(worst*100, "worst-MPKI-err-%")
		}
	}
}

func BenchmarkFigure5_CoScaleEnergySavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			avg := 0.0
			for _, row := range rows {
				avg += row.Full / float64(len(rows))
			}
			b.ReportMetric(avg*100, "avg-savings-%")
			b.Logf("\n%s", experiments.FormatFig5(rows))
		}
	}
}

func BenchmarkFigure6_CoScalePerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worst := 0.0
			for _, row := range rows {
				if row.Worst > worst {
					worst = row.Worst
				}
			}
			b.ReportMetric(worst*100, "worst-degradation-%")
			b.Logf("\n%s", experiments.FormatFig6(rows))
		}
	}
}

func BenchmarkFigure7_MilcTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		series, err := r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(series[experiments.CoScaleName])), "epochs")
			b.Logf("\n%s", experiments.FormatFig7(series))
		}
	}
}

func BenchmarkFigure8_PolicyEnergyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure8And9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rows {
				if row.Policy == experiments.CoScaleName {
					b.ReportMetric(row.Full*100, "coscale-savings-%")
				}
			}
			b.Logf("\n%s", experiments.FormatFig8And9(rows))
		}
	}
}

func BenchmarkFigure9_PolicyPerformanceComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure8And9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rows {
				if row.Policy == experiments.UncoordName {
					b.ReportMetric(row.WorstDeg*100, "uncoordinated-worst-%")
				}
			}
		}
	}
}

func reportSweep(b *testing.B, rows []experiments.SensitivityRow, err error, first bool, title string) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if first {
		// Per-variant savings averaged over the four mixes of each sweep,
		// surfaced as benchmark metrics so sensitivity regressions show up
		// in plain -bench output (not just the formatted log).
		avg := map[string]float64{}
		variants := []string{}
		for _, row := range rows {
			if _, seen := avg[row.Variant]; !seen {
				variants = append(variants, row.Variant)
			}
			avg[row.Variant] += row.Full / 4
		}
		for _, v := range variants {
			b.ReportMetric(avg[v]*100, "avg-full-savings-%["+v+"]")
		}
		b.Logf("\n%s", experiments.FormatSensitivity(title, rows))
	}
}

func BenchmarkFigure10_PerformanceBoundSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure10()
		reportSweep(b, rows, err, i == 0, "Figure 10: performance-bound sensitivity (MID)")
	}
}

func BenchmarkFigure11_RestOfSystemPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure11()
		reportSweep(b, rows, err, i == 0, "Figure 11: rest-of-system power share (MID)")
	}
}

func BenchmarkFigure12_PowerRatioMID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure12()
		reportSweep(b, rows, err, i == 0, "Figure 12: CPU:Mem power ratio (MID)")
	}
}

func BenchmarkFigure13_PowerRatioMEM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure13()
		reportSweep(b, rows, err, i == 0, "Figure 13: CPU:Mem power ratio (MEM)")
	}
}

func BenchmarkFigure14_VoltageRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure14()
		reportSweep(b, rows, err, i == 0, "Figure 14: CPU voltage range (MID)")
	}
}

func BenchmarkFigure15_FrequencyGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure15()
		reportSweep(b, rows, err, i == 0, "Figure 15: number of frequency steps (MID)")
	}
}

func BenchmarkFigure16_Prefetching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure16()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatFig16(rows))
		}
	}
}

func BenchmarkFigure17_OutOfOrderCPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure17And18()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].CPIOoO, "MEM-OoO-CPI-norm")
			b.Logf("\n%s", experiments.FormatFig17And18(rows))
		}
	}
}

func BenchmarkFigure18_OutOfOrderEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Figure17And18()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].EPIOoOCoScale, "MEM-OoO+CoScale-EPI-norm")
		}
	}
}

func BenchmarkAblation_CoreGroupingAndCaching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rows {
				b.Logf("%-22s savings %5.1f%% worst-deg %5.2f%%", row.Variant, row.Full*100, row.WorstDeg*100)
			}
		}
	}
}

func BenchmarkAblation_ProfilingWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBudget)
		rows, err := r.ProfilingWindowSweep()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rows {
				b.Logf("window %-8v savings %5.1f%% worst-deg %5.2f%%", row.Window, row.Full*100, row.WorstDeg*100)
			}
		}
	}
}

// --- §3.1 search-cost benchmarks: the frequency-selection algorithm alone,
// on synthetic profiling observations, at 16/64/128 cores. The paper
// measures <5 µs at 16 cores and projects 83/360 µs at 64/128 cores.

func searchBenchObs(n int) (policy.Config, policy.Observation) {
	return experiments.SearchBenchObs(n)
}

func benchSearch(b *testing.B, n int) {
	cfg, obs := searchBenchObs(n)
	cs := must(core.New(cfg))
	cs.Decide(obs) // untimed: sizes the first-call scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Decide(obs)
	}
	b.StopTimer()
	reportPerMove(b, cs)
}

// reportPerMove surfaces the per-step cost of the search walk: the number of
// committed frequency moves grows with the core count, so ns/op alone
// conflates walk length with per-move cost. ns/move is the sub-linear-scaling
// figure of merit (DESIGN.md §10).
func reportPerMove(b *testing.B, cs *core.CoScale) {
	if st := cs.SearchStats(); st.Moves > 0 {
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perOp/float64(st.Moves), "ns/move")
		b.ReportMetric(float64(st.Moves), "moves")
	}
}

func BenchmarkSearch16Cores(b *testing.B)   { benchSearch(b, 16) }
func BenchmarkSearch64Cores(b *testing.B)   { benchSearch(b, 64) }
func BenchmarkSearch128Cores(b *testing.B)  { benchSearch(b, 128) }
func BenchmarkSearch256Cores(b *testing.B)  { benchSearch(b, 256) }
func BenchmarkSearch512Cores(b *testing.B)  { benchSearch(b, 512) }
func BenchmarkSearch1024Cores(b *testing.B) { benchSearch(b, 1024) }

// benchSearchWarm measures the warm-hit decision path (DESIGN.md §14): the
// controller is primed with one cold decision on the same observation, so
// every timed Decide classifies the epoch as stable, seeds from the previous
// solution and serves its marginals from the snapshot table. The delta to
// the Search rows above is the warm-start saving on a perfectly stable
// phase — its upper bound.
func benchSearchWarm(b *testing.B, n int) {
	cfg, obs := searchBenchObs(n)
	cs := must(core.NewWithOptions(cfg, core.Options{WarmStart: true}))
	cs.Decide(obs) // cold prime: populates the snapshot table and phase signature
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Decide(obs)
	}
	b.StopTimer()
	st := cs.SearchStats()
	if st.WarmHits != 1 {
		b.Fatalf("warm benchmark fell back to the cold search: %+v", st)
	}
	b.ReportMetric(float64(st.CoreEvals), "evals")
	reportPerMove(b, cs)
}

func BenchmarkSearchWarm128Cores(b *testing.B)  { benchSearchWarm(b, 128) }
func BenchmarkSearchWarm512Cores(b *testing.B)  { benchSearchWarm(b, 512) }
func BenchmarkSearchWarm1024Cores(b *testing.B) { benchSearchWarm(b, 1024) }

// BenchmarkSearchNoCache quantifies the Figure 2 marginal-caching savings.
func BenchmarkSearchNoCache16Cores(b *testing.B) {
	cfg, obs := searchBenchObs(16)
	cs := must(core.NewWithOptions(cfg, core.Options{DisableMarginalCache: true}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Decide(obs)
	}
}

// BenchmarkRowBufferPolicy reproduces the §4.1 methodology claim that
// closed-page row-buffer management outperforms open-page for multicore
// traffic, on the cycle-level DDR3 simulator.
func BenchmarkRowBufferPolicy(b *testing.B) {
	latency := func(pol dram.RowPolicy) float64 {
		cfg := dram.DefaultConfig()
		cfg.RowPolicy = pol
		m, err := dram.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := trace.NewRand(7)
		for i := 0; i < 30000; i++ {
			if i%3 == 0 {
				m.Enqueue(dram.Request{Addr: rng.Uint64() % (1 << 30) / 64 * 64})
			}
			m.Tick(1)
		}
		m.Tick(500)
		return m.Stats().AvgReadLatency()
	}
	for i := 0; i < b.N; i++ {
		closed := latency(dram.ClosedPage)
		open := latency(dram.OpenPage)
		if i == 0 {
			b.ReportMetric(closed, "closed-page-cycles")
			b.ReportMetric(open, "open-page-cycles")
		}
	}
}

// BenchmarkPowerCap measures the §2.3 power-capping extension.
func BenchmarkPowerCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := Run(Config{Workload: "MID1", Policy: PolicyBaseline, InstructionBudget: benchBudget})
		if err != nil {
			b.Fatal(err)
		}
		capW := base.Energy.Total() / base.WallTime * 0.75
		res, err := Run(Config{Workload: "MID1", Policy: PolicyPowerCap, PowerCapWatts: capW,
			InstructionBudget: benchBudget})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Energy.Total()/res.WallTime, "avg-watts")
			b.ReportMetric(capW, "cap-watts")
		}
	}
}

// BenchmarkPowerCapDecide measures one capped decision on its own: a 16-core
// node of the fastcap study under a cap at 80% of its all-max power, on a
// warm controller (the steady state the zero-alloc gate pins).
func BenchmarkPowerCapDecide(b *testing.B) {
	fx := must(experiments.FastCapBenchFleet(1))
	pc := must(core.NewPowerCap(fx.Cfg, 0.8*fx.Provisioned))
	if _, err := pc.DecideCapped(fx.Obs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.DecideCapped(fx.Obs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebalancerEpoch measures one cold fleet rebalancing epoch: eight
// 16-core nodes of the fastcap study under a budget at 80% of provisioned
// power — eight frontier builds, the fair allocation and eight capped
// decisions. Iterations alternate between the fixture's two observation
// sets, which differ on every node, so no node can keep its frontier.
func BenchmarkRebalancerEpoch(b *testing.B) { benchRebalancerEpoch(b, false) }

// BenchmarkRebalancerEpochStable measures the same fleet epoch while every
// node holds its phase and the budget holds: each node keeps its frontier
// and its capped decision, so the epoch is the observation compares plus
// the allocation.
func BenchmarkRebalancerEpochStable(b *testing.B) { benchRebalancerEpoch(b, true) }

func benchRebalancerEpoch(b *testing.B, stable bool) {
	fx := must(experiments.FastCapBenchFleet(8))
	r := fastcap.NewRebalancer(fastcap.Fair)
	for n := range fx.Obs {
		if err := r.AddNode(fmt.Sprintf("node-%02d", n), fx.Cfg); err != nil {
			b.Fatal(err)
		}
	}
	sets := [2][]policy.Observation{fx.Later, fx.Obs}
	if stable {
		sets[0] = fx.Obs
	}
	var eps []fastcap.NodeEpoch
	var err error
	for _, obs := range [...][]policy.Observation{fx.Obs, fx.Later, fx.Obs} { // warm: grows scratch for both sets
		if eps, err = r.Epoch(0.8*fx.Provisioned, obs, eps[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eps, err = r.Epoch(0.8*fx.Provisioned, sets[i%2], eps[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreDispatchable measures one scheduler scan of the fleet job
// store after a long history: about 10k jobs admitted, every one done but
// the newest sweep's 96 pending cells.
func BenchmarkStoreDispatchable(b *testing.B) {
	st := must(fleet.DispatchBenchStore())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if refs := st.Dispatchable(time.Time{}, 96); len(refs) != 96 {
			b.Fatalf("Dispatchable found %d jobs, want 96", len(refs))
		}
	}
}

// BenchmarkEpochSimulation measures raw fast-backend throughput in steady
// state: the engine and controller are built once and rewound per iteration
// (both Resets are bit-identity-preserving), so the number is simulation
// throughput rather than per-run construction — trace parsing, ladder
// building and scratch growth all happen before the timer starts.
func BenchmarkEpochSimulation(b *testing.B) {
	sc, err := Config{Workload: "MID1", InstructionBudget: benchBudget}.toSim()
	if err != nil {
		b.Fatal(err)
	}
	cs := must(core.New(sc.PolicyConfig()))
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
