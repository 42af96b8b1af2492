// Command coscale-loadgen is the repository's end-to-end benchmark (see
// README.md in this directory). It runs the internal/loadgen workloads and
// prints every metric by name with its unit.
//
// One workload, in this process:
//
//	coscale-loadgen --workload serve-closed --seed 1 --seconds 20 --trace 0
//
// prints the full result (environment, checks, sample counts, metrics) as
// one JSON line and then, as the last line, the summary object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 or --trace FILE (FILE also
// receives the spans as JSON lines).
//
// Every workload, each in a fresh child process:
//
//	coscale-loadgen -all -seed 1 [-trace spans.jsonl] [-out results/]
//
// runs a 20 s untraced window per workload and, with -trace, a separate
// traced run whose own untraced and traced halves last 5 s each.
//
// Comparing two sets of results written by -out:
//
//	coscale-loadgen -compare A/ B/
//
// prints each side's median and quartiles per metric and workload, and
// exits 1 when a metric's median worsened by more than its BENCHMARK.json
// bound.
//
// Any run exits non-zero when an output check fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"coscale/internal/buildinfo"
	"coscale/internal/loadgen"
)

// traceFlag is --trace: 0 (off), 1 (on), or a file that receives the spans.
type traceFlag struct {
	on   bool
	path string
}

func (t *traceFlag) String() string {
	switch {
	case t.path != "":
		return t.path
	case t.on:
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(v string) error {
	switch v {
	case "0", "false", "":
		*t = traceFlag{}
	case "1", "true":
		*t = traceFlag{on: true}
	default:
		*t = traceFlag{on: true, path: v}
	}
	return nil
}

func main() {
	var tf traceFlag
	workload := flag.String("workload", "", "run one workload: "+strings.Join(loadgen.Workloads, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "timed window in seconds (a traced run splits it into untraced and traced halves)")
	flag.Var(&tf, "trace", "0, 1, or a file receiving the spans as JSON lines")
	all := flag.Bool("all", false, "run every workload, each in a fresh child process")
	out := flag.String("out", "", "directory that receives each run's full result as JSON")
	compare := flag.Bool("compare", false, "compare the result sets named by the two arguments (directories or glob patterns)")
	bench := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the comparison bounds")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	var code int
	switch {
	case *version:
		fmt.Println(buildinfo.Version("coscale-loadgen"))
	case *compare:
		code = runCompare(*bench, flag.Args())
	case *all:
		code = runAll(*seed, *seconds, tf, *out)
	case *workload != "":
		code = runOne(loadgen.Config{
			Workload: *workload,
			Seed:     *seed,
			Window:   time.Duration(*seconds * float64(time.Second)),
			Trace:    tf.on,
		}, tf.path, *out)
	default:
		flag.Usage()
		code = 2
	}
	os.Exit(code)
}

// summary is the last line of a single-workload run.
type summary struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]loadgen.Metric `json:"metrics"`
}

func runOne(cfg loadgen.Config, spansPath, outDir string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if spansPath != "" {
		f, err := os.OpenFile(spansPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		cfg.Spans = f
	}
	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	full, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if outDir != "" {
		name := fmt.Sprintf("%s-seed%d", res.Workload, res.Seed)
		if res.Trace {
			name += "-trace"
		}
		if err := writeFile(filepath.Join(outDir, name+".json"), full); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	last, err := json.Marshal(summary{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	fmt.Printf("%s\n%s\n", full, last)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceSeconds is the length of each half of a traced run under -all.
const traceSeconds = 5

func runAll(seed uint64, seconds float64, tf traceFlag, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if tf.path != "" {
		if err := os.WriteFile(tf.path, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	code := 0
	var results []*loadgen.Result
	for _, w := range loadgen.Workloads {
		runs := [][]string{{"-trace", "0", "-seconds", fmt.Sprint(seconds)}}
		if tf.on {
			tr := tf.path
			if tr == "" {
				tr = "1"
			}
			runs = append(runs, []string{"-trace", tr, "-seconds", fmt.Sprint(2 * traceSeconds)})
		}
		for _, extra := range runs {
			args := append([]string{"-workload", w, "-seed", fmt.Sprint(seed), "-out", outDir}, extra...)
			res, err := child(exe, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w, err)
				code = 1
			}
			if res != nil {
				results = append(results, res)
			}
		}
	}
	printTable(os.Stdout, results)
	return code
}

// child runs one workload in a fresh process and parses its full result
// (the second-to-last stdout line).
func child(exe string, args []string) (*loadgen.Result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		if runErr == nil {
			runErr = errors.New("no result printed")
		}
		return nil, runErr
	}
	var res loadgen.Result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &res); err != nil {
		return nil, err
	}
	return &res, runErr
}

func printTable(w io.Writer, results []*loadgen.Result) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, r := range results {
		fmt.Fprintf(bw, "\n%s seed %d: correct=%t attempted=%d failed=%d error_rate=%g\n",
			r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.ErrorRate)
		if r.Trace {
			fmt.Fprintf(bw, "  per-layer metrics of a traced run\n")
		} else {
			fmt.Fprintf(bw, "  end-to-end metrics; %d latency samples, %d beyond p%g\n",
				r.Samples, r.BeyondTail, r.TailPercentile)
		}
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(bw, "  %-40s %14s %s\n", n, strconv.FormatFloat(r.Metrics[n].Value, 'g', 6, 64), r.Metrics[n].Unit)
		}
	}
	if len(results) > 0 {
		e := results[0].Env
		fmt.Fprintf(bw, "\nenv: nproc=%d GOMAXPROCS=%d %s %s (%s)\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.OSArch, e.Build)
	}
}

func runCompare(benchPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: coscale-loadgen -compare A B  (each a directory of result JSON files or a quoted glob)")
		return 2
	}
	bench, err := loadgen.LoadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var sides [2][]*loadgen.Result
	for i, arg := range args {
		paths, err := expand(arg)
		if err == nil {
			sides[i], err = loadgen.LoadResults(paths)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if n := loadgen.Compare(os.Stdout, bench, sides[0], sides[1]); n > 0 {
		fmt.Printf("%d regression(s)\n", n)
		return 1
	}
	return 0
}

// expand turns a directory into its *.json files and anything else into
// the files its glob pattern matches.
func expand(arg string) ([]string, error) {
	pattern := arg
	if fi, err := os.Stat(arg); err == nil && fi.IsDir() {
		pattern = filepath.Join(arg, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err == nil && len(paths) == 0 {
		err = fmt.Errorf("%s: no result files", arg)
	}
	return paths, err
}
