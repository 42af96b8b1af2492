package main

import (
	"flag"
	"strings"
	"testing"
)

// TestBench checks that a failing body is an error rather than a zero row,
// and that a row's Moves, NsPerMove, EvalsPerOp and Offline counts come from
// the metrics its body reported.
func TestBench(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	defer bt.Value.Set(bt.Value.String())
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	if _, err := bench("Fails", func(b *testing.B) { b.Fatal("boom") }); err == nil {
		t.Error("a failing body produced a row")
	}
	row, err := bench("Reports", func(b *testing.B) {
		b.ReportMetric(7, "moves")
		b.ReportMetric(3.5, "ns/move")
		b.ReportMetric(12, "evals/op")
		b.ReportMetric(300, "sweeps/op")
		b.ReportMetric(75, "infeasible/op")
		b.ReportMetric(88, "skipped/op")
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Name != "Reports" || row.Iterations != 1 || row.Moves != 7 || row.NsPerMove != 3.5 || row.EvalsPerOp != 12 ||
		row.SweepsPerOp != 300 || row.InfeasiblePerOp != 75 || row.SkippedPerOp != 88 {
		t.Errorf("row = %+v, want Reports with 1 iteration, 7 moves, 3.5 ns/move, 12 evals/op, "+
			"300 sweeps, 75 infeasible, 88 skipped per op", row)
	}
}

// TestDiffGates checks each way diff fails a fresh run against its baseline
// — a missing row, an allocs/op increase, ns/op above the threshold — and
// that rows within the policy, or present only in the fresh run, pass.
func TestDiffGates(t *testing.T) {
	old := Report{Benchmarks: []BenchRow{
		{Name: "Steady", NsPerOp: 100, AllocsPerOp: 2},
		{Name: "Dropped", NsPerOp: 100},
		{Name: "MoreAllocs", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "Slower", NsPerOp: 100},
		{Name: "AtThreshold", NsPerOp: 100},
	}}
	cur := Report{Benchmarks: []BenchRow{
		{Name: "Steady", NsPerOp: 90, AllocsPerOp: 2},
		{Name: "MoreAllocs", NsPerOp: 100, AllocsPerOp: 2},
		{Name: "Slower", NsPerOp: 301},
		{Name: "AtThreshold", NsPerOp: 300},
		{Name: "New", NsPerOp: 1e9, AllocsPerOp: 99},
	}}
	got := diff(old, cur, 3)
	want := []string{
		"MISSING Dropped:",
		"REGRESSION MoreAllocs: allocs/op 1 -> 2",
		"REGRESSION Slower: ns/op 100 -> 301",
	}
	if len(got) != len(want) {
		t.Fatalf("diff = %q, want %d failures", got, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("failure %d = %q, want prefix %q", i, got[i], w)
		}
	}
	if f := diff(old, old, 3); len(f) != 0 {
		t.Errorf("a report diffed against itself failed: %q", f)
	}
}
