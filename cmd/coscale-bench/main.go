// Command coscale-bench runs the headline performance benchmarks — the §3.1
// search cost at 16-1024 cores, one op of the 1024-core control loop
// (Observe then Decide), the slack book's Observe at 1024 cores, one capped
// PowerCap decision (cold, and
// replayed under a moving cap), one frontier build, one
// fleet rebalancing epoch (cold, and with every node holding its phase), one scheduler scan of the fleet job store, one
// 96-cell sweep committed through a journaled store, the raw
// epoch-simulation throughput, one Offline comparison-policy decision and
// a replay of all 48 recorded cells of the traffic Offline serves — plus a timed figure
// regeneration, and writes the numbers as
// machine-readable JSON, with the host's CPU count and GOMAXPROCS. The committed BENCH_baseline.json at the repository root
// is this program's output; regenerate it with `make bench-json`, which
// keeps each row's hand-copied parent numbers. Each row
// runs the same body as the root package's BenchmarkX of that name
// (internal/experiments and internal/fleet define them), and a body that
// fails exits non-zero.
//
// Diff mode compares a fresh run against a previous report and exits
// non-zero on regression, so CI can gate hot-path changes:
//
//	coscale-bench -compare BENCH_baseline.json
//
// A baseline row the fresh run did not produce fails the diff. Allocation
// counts are deterministic and gate strictly (any increase over the
// baseline fails). Nanosecond timings vary across machines, so they gate
// loosely: a benchmark fails only when it exceeds the baseline by the
// -threshold factor (default 3x), which catches algorithmic regressions
// without flaking on hardware differences.
//
// Usage:
//
//	coscale-bench                      # print JSON to stdout
//	coscale-bench -out BENCH_baseline.json
//	coscale-bench -benchtime 2s -figure-budget 10000000
//	coscale-bench -compare BENCH_baseline.json -threshold 2.5
//	coscale-bench -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"coscale/internal/buildinfo"
	"coscale/internal/experiments"
	"coscale/internal/fleet"
)

// Report is the BENCH_*.json schema (see DESIGN.md §7 for how to read it).
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []BenchRow  `json:"benchmarks"`
	Figures    []FigureRow `json:"figures"`
}

// BenchRow records one testing.Benchmark result. For the search benchmarks,
// Moves and NsPerMove expose per-step cost: the walk takes more moves at
// higher core counts, so ns/op alone conflates walk length with per-move
// cost; ns/move is the sub-linear-scaling figure of merit (DESIGN.md §10).
// For the capped-walk benchmarks, EvalsPerOp counts the operating points
// core.CapWalk evaluates per op, a machine-independent cost; for
// OfflineTraffic, SweepsPerOp, InfeasiblePerOp and SkippedPerOp count the
// core sweeps Offline runs, those that find nothing feasible and the
// verifications it skips (DESIGN.md §4).
type BenchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Moves       int     `json:"moves,omitempty"`
	NsPerMove   float64 `json:"ns_per_move,omitempty"`
	EvalsPerOp  float64 `json:"evals_per_op,omitempty"`

	SweepsPerOp     float64 `json:"sweeps_per_op,omitempty"`
	InfeasiblePerOp float64 `json:"infeasible_per_op,omitempty"`
	SkippedPerOp    float64 `json:"skipped_per_op,omitempty"`

	// Runs, NsPerOpMin and NsPerOpMax are copied in by hand for a row
	// measured over repeated runs: their number and the spread of ns/op
	// (NsPerOp is then their median). -out measures the row once, so it
	// drops them.
	Runs       int     `json:"runs,omitempty"`
	NsPerOpMin float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`

	Parent
}

// Parent holds, for a row added with a change that speeds up its path, the
// same body measured on the same host at the parent of that change, copied
// in by hand. -out carries it over from the same-named row of the report
// it overwrites; -compare ignores it.
type Parent struct {
	BeforeNsPerOp     float64 `json:"before_ns_per_op,omitempty"`
	BeforeAllocsPerOp int64   `json:"before_allocs_per_op,omitempty"`
	// BeforeNsPerOpMin and BeforeNsPerOpMax, when set, mark BeforeNsPerOp
	// as the median of repeated runs and give their spread.
	BeforeNsPerOpMin float64 `json:"before_ns_per_op_min,omitempty"`
	BeforeNsPerOpMax float64 `json:"before_ns_per_op_max,omitempty"`
}

// FigureRow records the wall time of one figure regeneration.
type FigureRow struct {
	Name        string  `json:"name"`
	InstrBudget uint64  `json:"instr_budget"`
	Seconds     float64 `json:"seconds"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("coscale-bench: ")

	var (
		out          = flag.String("out", "", "write JSON here instead of stdout")
		benchtime    = flag.Duration("benchtime", time.Second, "minimum measurement time per benchmark")
		figureBudget = flag.Uint64("figure-budget", 10_000_000, "instructions per app for the timed figure regeneration")
		compare      = flag.String("compare", "", "previous report to diff against; exit 1 on regression")
		threshold    = flag.Float64("threshold", 3.0, "ns/op regression factor tolerated in -compare mode")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run here")
		memprofile   = flag.String("memprofile", "", "write an allocation profile of the benchmark run here")
		version      = flag.Bool("version", false, "print the version and exit")
	)
	testing.Init() // registers -test.* flags so benchtime can be set below
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version("coscale-bench"))
		return
	}
	// testing.Benchmark respects the -test.benchtime flag value.
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		log.Fatal(err)
	}
	// Read the report -out overwrites before any benchmark runs, so one
	// that does not parse fails at once.
	parents, err := previousParents(*out)
	if err != nil {
		log.Fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime.String(),
	}

	for _, hb := range headline {
		row, err := bench(hb.name, hb.fn)
		if err != nil {
			log.Fatal(err)
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
	}

	// Figure 8/9: the six-policy sweep whose shared-baseline caching this
	// file's numbers guard (one baseline simulation per mix, not six).
	r := experiments.NewRunner(*figureBudget)
	start := time.Now()
	if _, err := r.Figure8And9(); err != nil {
		log.Fatal(err)
	}
	rep.Figures = append(rep.Figures, FigureRow{
		Name:        "Figure8And9",
		InstrBudget: *figureBudget,
		Seconds:     time.Since(start).Seconds(),
	})

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}

	for i, row := range rep.Benchmarks {
		rep.Benchmarks[i].Parent = parents[row.Name]
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	switch {
	case *out != "":
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatal(err)
		}
	case *compare == "": // diff mode logs the comparison instead of the report
		os.Stdout.Write(buf)
	}

	if *compare != "" {
		old, err := readReport(*compare)
		if err != nil {
			log.Fatal(err)
		}
		if failures := diff(old, rep, *threshold); len(failures) > 0 {
			for _, f := range failures {
				log.Print(f)
			}
			log.Fatalf("%d regression(s) against %s", len(failures), *compare)
		}
		log.Printf("no regressions against %s (threshold %.2fx)", *compare, *threshold)
	}
}

// headline lists the benchmark rows in report order. Each body is shared
// with the root package's BenchmarkX of the same name.
var headline = []struct {
	name string
	fn   func(*testing.B)
}{
	{"Search16Cores", experiments.BenchSearch16Cores},
	{"Search64Cores", experiments.BenchSearch64Cores},
	{"Search128Cores", experiments.BenchSearch128Cores},
	{"Search256Cores", experiments.BenchSearch256Cores},
	{"Search512Cores", experiments.BenchSearch512Cores},
	{"Search1024Cores", experiments.BenchSearch1024Cores},
	{"ControlOp1024", experiments.BenchControlOp1024},
	{"SlackObserve1024", experiments.BenchSlackObserve1024},
	{"PowerCapDecide", experiments.BenchPowerCapDecide},
	{"PowerCapRedecide", experiments.BenchPowerCapRedecide},
	{"FrontierBuild", experiments.BenchFrontierBuild},
	{"RebalancerEpoch", experiments.BenchRebalancerEpoch},
	{"RebalancerEpochStable", experiments.BenchRebalancerEpochStable},
	{"RebalancerEpochLone", experiments.BenchRebalancerEpochLone},
	{"StoreDispatchable", fleet.BenchStoreDispatchable},
	{"StoreSweepCommit", fleet.BenchStoreSweepCommit},
	{"EpochSimulation", experiments.BenchEpochSimulation},
	{"OfflineDecide", experiments.BenchOfflineDecide},
	{"OfflineTraffic", experiments.BenchOfflineTraffic},
}

// bench runs one benchmark body under the standard harness and flattens the
// result into a BenchRow, taking Moves, NsPerMove, EvalsPerOp and the
// Offline counts from the metrics the body reported. A body that fails
// leaves a zero result (N == 0), which is an error.
func bench(name string, fn func(b *testing.B)) (BenchRow, error) {
	res := testing.Benchmark(fn)
	if res.N == 0 {
		return BenchRow{}, fmt.Errorf("benchmark %s failed", name)
	}
	return BenchRow{
		Name:        name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Iterations:  res.N,
		Moves:       int(res.Extra["moves"]),
		NsPerMove:   res.Extra["ns/move"],
		EvalsPerOp:  res.Extra["evals/op"],

		SweepsPerOp:     res.Extra["sweeps/op"],
		InfeasiblePerOp: res.Extra["infeasible/op"],
		SkippedPerOp:    res.Extra["skipped/op"],
	}, nil
}

// previousParents returns, by row name, the Parent fields of the report
// at path. A path that holds no report — none given, missing, empty, or
// not a regular file, such as /dev/null — has none.
func previousParents(path string) (map[string]Parent, error) {
	if fi, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) ||
		err == nil && (!fi.Mode().IsRegular() || fi.Size() == 0) {
		return nil, nil
	}
	prev, err := readReport(path)
	if err != nil {
		return nil, err
	}
	parents := make(map[string]Parent, len(prev.Benchmarks))
	for _, row := range prev.Benchmarks {
		parents[row.Name] = row.Parent
	}
	return parents, nil
}

func readReport(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// diff reports regressions of new against old: a baseline row the new run
// did not produce (a renamed or dropped benchmark would otherwise escape the
// gate), any allocs/op increase (deterministic, so strict), and ns/op beyond
// threshold x the old value (loose, to absorb machine differences). Rows only
// the new run has are not gated.
func diff(old, new Report, threshold float64) []string {
	cur := make(map[string]BenchRow, len(new.Benchmarks))
	for _, row := range new.Benchmarks {
		cur[row.Name] = row
	}
	var failures []string
	for _, base := range old.Benchmarks {
		row, ok := cur[base.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("MISSING %s: in the baseline but not in this run", base.Name))
			continue
		}
		if row.AllocsPerOp > base.AllocsPerOp {
			failures = append(failures, fmt.Sprintf(
				"REGRESSION %s: allocs/op %d -> %d", row.Name, base.AllocsPerOp, row.AllocsPerOp))
		}
		if base.NsPerOp > 0 && row.NsPerOp > base.NsPerOp*threshold {
			failures = append(failures, fmt.Sprintf(
				"REGRESSION %s: ns/op %.0f -> %.0f (%.2fx > %.2fx allowed)",
				row.Name, base.NsPerOp, row.NsPerOp, row.NsPerOp/base.NsPerOp, threshold))
		} else {
			log.Printf("%-20s ns/op %10.0f -> %10.0f (%.2fx)  allocs/op %d -> %d",
				row.Name, base.NsPerOp, row.NsPerOp, row.NsPerOp/base.NsPerOp,
				base.AllocsPerOp, row.AllocsPerOp)
		}
	}
	return failures
}
