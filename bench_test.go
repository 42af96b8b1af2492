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
	"math"
	"testing"

	"coscale/internal/core"
	"coscale/internal/dram"
	"coscale/internal/experiments"
	"coscale/internal/fleet"
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

// --- Headline benchmarks: the §3.1 search cost at 16-1024 cores, one
// capped PowerCap decision (cold, and replayed under a moving cap), one
// frontier build, one fleet rebalancing epoch (cold and
// stable), one fleet-store scheduler scan, steady-state epoch
// simulation and one Offline comparison-policy decision. Each body is defined once, next to its fixture, and
// cmd/coscale-bench runs the same bodies for BENCH_baseline.json.

func BenchmarkSearch16Cores(b *testing.B)         { experiments.BenchSearch16Cores(b) }
func BenchmarkSearch64Cores(b *testing.B)         { experiments.BenchSearch64Cores(b) }
func BenchmarkSearch128Cores(b *testing.B)        { experiments.BenchSearch128Cores(b) }
func BenchmarkSearch256Cores(b *testing.B)        { experiments.BenchSearch256Cores(b) }
func BenchmarkSearch512Cores(b *testing.B)        { experiments.BenchSearch512Cores(b) }
func BenchmarkSearch1024Cores(b *testing.B)       { experiments.BenchSearch1024Cores(b) }
func BenchmarkControlOp1024(b *testing.B)         { experiments.BenchControlOp1024(b) }
func BenchmarkSlackObserve1024(b *testing.B)      { experiments.BenchSlackObserve1024(b) }
func BenchmarkPowerCapDecide(b *testing.B)        { experiments.BenchPowerCapDecide(b) }
func BenchmarkPowerCapRedecide(b *testing.B)      { experiments.BenchPowerCapRedecide(b) }
func BenchmarkFrontierBuild(b *testing.B)         { experiments.BenchFrontierBuild(b) }
func BenchmarkRebalancerEpoch(b *testing.B)       { experiments.BenchRebalancerEpoch(b) }
func BenchmarkRebalancerEpochStable(b *testing.B) { experiments.BenchRebalancerEpochStable(b) }
func BenchmarkStoreDispatchable(b *testing.B)     { fleet.BenchStoreDispatchable(b) }
func BenchmarkEpochSimulation(b *testing.B)       { experiments.BenchEpochSimulation(b) }
func BenchmarkOfflineDecide(b *testing.B)         { experiments.BenchOfflineDecide(b) }
func BenchmarkOfflineTraffic(b *testing.B)        { experiments.BenchOfflineTraffic(b) }

// BenchmarkSearchNoCache quantifies the Figure 2 marginal-caching savings.
func BenchmarkSearchNoCache16Cores(b *testing.B) {
	cfg, obs := experiments.SearchBenchObs(16)
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
