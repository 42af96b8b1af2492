package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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

// TestPreviousParents checks that -out reads, from the report it
// overwrites, each row's parent fields by name; that a path with no report
// yet (none given, missing, empty, or a device such as the one `make
// profile` writes to) has none; and that a report that does not parse is
// an error.
func TestPreviousParents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"", path, empty, os.DevNull} {
		if parents, err := previousParents(p); err != nil || parents != nil {
			t.Errorf("previousParents(%q) = %v, %v; want no report", p, parents, err)
		}
	}

	kept := Parent{BeforeNsPerOp: 700, BeforeAllocsPerOp: 4, BeforeNsPerOpMin: 650, BeforeNsPerOpMax: 750}
	prev, err := json.Marshal(Report{Benchmarks: []BenchRow{
		{Name: "Kept", NsPerOp: 500, AllocsPerOp: 3, Iterations: 9, Runs: 6, NsPerOpMin: 450, NsPerOpMax: 550, Parent: kept},
		{Name: "Bare", NsPerOp: 1, Runs: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	parents, err := previousParents(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]Parent{"Kept": kept, "Bare": {}}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %+v, want %+v", parents, want)
	}

	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := previousParents(path); err == nil {
		t.Error("a report that does not parse was accepted")
	}
}
