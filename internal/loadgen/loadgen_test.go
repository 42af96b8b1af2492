package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestScheduleReplayable pins the generator contract: the inputs are a
// pure function of (workload, seed, index) — byte-identical for the same
// seed, different for another.
func TestScheduleReplayable(t *testing.T) {
	serve := func(seed uint64, n int) []serveReq {
		g := newServeGen(seed)
		var reqs []serveReq
		for range n {
			r, err := g.next()
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}
		return reqs
	}
	gen := func(seed uint64) []byte {
		chain := newStickyChain(seed, controlObs, controlStay)
		var states []int
		for range 500 {
			states = append(states, chain.next())
		}
		var sweeps [][]byte
		for k := range 3 {
			b, err := sweepReq(seed, k)
			if err != nil {
				t.Fatal(err)
			}
			sweeps = append(sweeps, b)
		}
		out, err := json.Marshal([]any{serve(seed, 900), states, sweeps})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different inputs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical inputs")
	}

	reqs := serve(7, 900)
	fresh := map[string]bool{}
	repeats, streams := 0, 0
	for i, r := range reqs {
		if r.RepeatOf >= 0 {
			repeats++
			if r.RepeatOf >= i || i-r.RepeatOf > repeatWindow || !bytes.Equal(r.Body, reqs[r.RepeatOf].Body) {
				t.Fatalf("request %d is not an exact repeat of a recent request", i)
			}
			continue
		}
		if fresh[string(r.Body)] {
			t.Fatalf("fresh request %d repeats an earlier body", i)
		}
		fresh[string(r.Body)] = true
		if r.Req.Stream {
			streams++
		}
	}
	if repeats < 89 || repeats > 90 || streams < 90 || streams > 91 {
		t.Fatalf("%d repeats and %d streams in 900 requests, want one of each per ten", repeats, streams)
	}
}

// TestScheduleBoundsExhausted pins that a generator whose cells have used
// every fresh bound fails instead of searching forever. With two bounds per
// cell, the 96 cells hold 192 fresh requests, about nine in ten of the
// requests dealt.
func TestScheduleBoundsExhausted(t *testing.T) {
	g := newServeGen(7)
	g.steps = 2
	for i := range 300 {
		if _, err := g.next(); err != nil {
			if i < 192 {
				t.Fatalf("request %d: %v, want no error before 192 fresh requests", i, err)
			}
			return
		}
	}
	t.Fatal("300 requests from cells of two bounds each, want an error")
}

// TestQuartilesMatchPython pins the spread rule's quartile method to
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 { //lint:ignore floateq the expected values are exact binary fractions
		t.Fatalf("quartiles = %g, %g, %g; want 2.75, 5.5, 8.25", q1, q2, q3)
	}
}

// TestSmoke runs every workload briefly, untraced on two seeds and traced
// on one, and checks that each run passes its output checks and reports
// every metric BENCHMARK.json names, with its unit, and that the quality
// metrics, whose bound is 0, read the same bits on both seeds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bench, err := LoadBenchmark(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool][]MetricDef{true: bench.PerLayer}
	for _, b := range bench.EndToEnd {
		want[false] = append(want[false], b.MetricDef)
	}
	for trace, defs := range want {
		if len(defs) != len(Names(trace)) {
			t.Errorf("BENCHMARK.json lists %d metrics (trace=%t), the program reports %d", len(defs), trace, len(Names(trace)))
		}
	}
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			quality := map[uint64][2]float64{}
			for _, run := range []struct {
				seed  uint64
				trace bool
			}{{3, false}, {3, true}, {4, false}} {
				trace := run.trace
				res, err := Run(context.Background(), Config{
					Workload: w, Seed: run.seed, Trace: trace, Window: 400 * time.Millisecond,
					Warmup: 300 * time.Millisecond, Dir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("seed=%d trace=%t: %v", run.seed, trace, err)
				}
				if !trace {
					quality[run.seed] = [2]float64{res.Metrics["energy_savings_pct"].Value, res.Metrics["worst_slowdown_pct"].Value}
				}
				if !res.Correct || res.ErrorRate > 0 || res.Attempted == 0 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d: %v", trace, res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				for _, d := range want[trace] {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("trace=%t: metric %s = %+v, want unit %q", trace, d.Name, m, d.Unit)
					}
				}
				if !trace {
					for _, d := range bench.EndToEnd {
						if v := res.Metrics[d.Name].Value; v <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, v)
						}
					}
				}
			}
			if a, b := quality[3], quality[4]; math.Float64bits(a[0]) != math.Float64bits(b[0]) || math.Float64bits(a[1]) != math.Float64bits(b[1]) {
				t.Errorf("quality metrics differ between seeds: %v and %v", a, b)
			}
		})
	}
}
