package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Bound is one end-to-end metric of BENCHMARK.json with the share of the
// baseline median by which it may worsen.
type Bound struct {
	MetricDef
	Bound float64 `json:"bound"`
}

// Benchmark is the part of BENCHMARK.json the comparison reads.
type Benchmark struct {
	EndToEnd []Bound     `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// LoadBenchmark reads a BENCHMARK.json.
func LoadBenchmark(path string) (Benchmark, error) {
	var b Benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// LoadResults reads result files written by -out.
func LoadResults(paths []string) ([]*Result, error) {
	var out []*Result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// Compare prints, for every workload × end-to-end metric, each side's
// median and quartiles over its untraced runs, and flags B as a regression
// when its median is worse than A's by more than the metric's bound. When
// either side's own spread (interquartile range over median) exceeds the
// bound, the difference cannot be resolved and the row says so, unless every
// B run is better than every A run. It returns the number of regressions.
func Compare(w io.Writer, bench Benchmark, a, b []*Result) int {
	regressions := 0
	fmt.Fprintf(w, "%-15s %-19s %5s %36s %36s  %s\n", "workload", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, wl := range workloadsOf(a, b) {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			verdict := "ok"
			worse := b2 - a2 // positive: B worse when lower is better
			if m.Better == "higher" {
				worse = -worse
			}
			switch {
			case worse > m.Bound*math.Abs(a2):
				verdict = "REGRESSION"
				regressions++
			case spread(a1, a2, a3) > m.Bound || spread(b1, b2, b3) > m.Bound:
				if !allBetter(va, vb, m.Better) {
					verdict = "unresolved (spread wider than bound)"
				}
			}
			fmt.Fprintf(w, "%-15s %-19s %5.3f %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g]  %s\n",
				wl, m.Name, m.Bound, a2, a1, a3, b2, b1, b3, verdict)
		}
	}
	return regressions
}

func spread(q1, q2, q3 float64) float64 {
	if m := math.Abs(q2); m > 0 {
		return (q3 - q1) / m
	}
	return 0
}

func allBetter(a, b []float64, better string) bool {
	sort.Float64s(a)
	sort.Float64s(b)
	if better == "higher" {
		return b[0] > a[len(a)-1]
	}
	return b[len(b)-1] < a[0]
}

func workloadsOf(sets ...[]*Result) []string {
	seen := map[string]bool{}
	var out []string
	for _, set := range sets {
		for _, r := range set {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

func values(rs []*Result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
