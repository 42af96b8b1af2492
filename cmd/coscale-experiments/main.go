// Command coscale-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	coscale-experiments                  # everything (full 100M budget)
//	coscale-experiments -exp fig5,fig8   # selected experiments
//	coscale-experiments -budget 25000000 # faster, reduced budget
//
// Experiment names: table1 table2 fig5 fig6 fig7 fig8 fig10 fig11 fig12
// fig13 fig14 fig15 fig16 fig17 ablations faults fastcap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"coscale/internal/buildinfo"
	"coscale/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coscale-experiments: ")

	var (
		expList  = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		budget   = flag.Uint64("budget", 100_000_000, "instructions per application")
		fcNodes  = flag.Int("fastcap-nodes", 0, "fastcap: simulated fleet size (0 = default 6)")
		fcEpochs = flag.Int("fastcap-epochs", 0, "fastcap: rebalancing epochs (0 = default 36)")
		version  = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("coscale-experiments"))
		return
	}

	// SIGINT/SIGTERM cancel the runner's base context: in-flight simulations
	// unwind within one epoch and the current experiment returns a
	// cancellation error, which is reported as a partial-results exit below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := experiments.NewRunner(*budget)
	r.Ctx = ctx
	wanted := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	all := wanted["all"]
	want := func(name string) bool { return all || wanted[name] }
	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			log.Print("interrupted: results printed so far are partial; rerun to regenerate the remaining experiments")
		}
		log.Print(err)
		os.Exit(1)
	}

	if want("table1") {
		rows, err := r.Table1()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatTable1(rows))
	}
	if want("table2") {
		fmt.Println(experiments.Table2())
	}
	if want("fig5") {
		rows, err := r.Figure5()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig5(rows))
	}
	if want("fig6") {
		rows, err := r.Figure6()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig6(rows))
	}
	if want("fig7") {
		series, err := r.Figure7()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig7(series))
	}
	if want("fig8") || want("fig9") {
		rows, err := r.Figure8And9()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig8And9(rows))
	}
	type sweep struct {
		name  string
		run   func() ([]experiments.SensitivityRow, error)
		title string
	}
	for _, s := range []sweep{
		{"fig10", r.Figure10, "Figure 10: performance-bound sensitivity (MID)"},
		{"fig11", r.Figure11, "Figure 11: rest-of-system power share (MID)"},
		{"fig12", r.Figure12, "Figure 12: CPU:Mem power ratio (MID)"},
		{"fig13", r.Figure13, "Figure 13: CPU:Mem power ratio (MEM)"},
		{"fig14", r.Figure14, "Figure 14: CPU voltage range (MID)"},
		{"fig15", r.Figure15, "Figure 15: number of frequency steps (MID)"},
	} {
		if !want(s.name) {
			continue
		}
		rows, err := s.run()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatSensitivity(s.title, rows))
	}
	if want("fig16") {
		rows, err := r.Figure16()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig16(rows))
	}
	if want("fig17") || want("fig18") {
		rows, err := r.Figure17And18()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFig17And18(rows))
	}
	if want("faults") {
		rows, err := r.ErrorTolerance()
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatErrorTolerance(rows))
	}
	if want("fastcap") {
		rows, err := r.FastCap(*fcNodes, *fcEpochs)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.FormatFastCap(rows))
	}
	if want("ablations") {
		rows, err := r.Ablations()
		if err != nil {
			fail(err)
		}
		fmt.Println("Ablations (MID mixes):")
		for _, row := range rows {
			fmt.Printf("  %-22s savings %5.1f%%  worst-deg %5.2f%%\n", row.Variant, row.Full*100, row.WorstDeg*100)
		}
	}
}
