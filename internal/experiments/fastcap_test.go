package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"coscale/internal/fastcap"
	"coscale/internal/policy"
)

func fastCapRow(t *testing.T, rows []FastCapRow, strategy, segment string) FastCapRow {
	t.Helper()
	for _, r := range rows {
		if r.Strategy == strategy && r.Segment == segment {
			return r
		}
	}
	t.Fatalf("no row for %s/%s", strategy, segment)
	return FastCapRow{}
}

// TestFastCapFairBeatsGreedyUnderCut pins the study's headline result on
// the committed default grid: under the 20% budget cut, fair max-min
// water-filling beats greedy on worst-node slowdown at equal-or-better
// energy, and is no less fair by Jain's index.
func TestFastCapFairBeatsGreedyUnderCut(t *testing.T) {
	rows, err := NewRunner(0).FastCap(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fair := fastCapRow(t, rows, "fair", "cut")
	greedy := fastCapRow(t, rows, "greedy", "cut")
	if !(fair.WorstSlow < greedy.WorstSlow) {
		t.Errorf("fair worst-node slowdown %.4f not better than greedy %.4f under the cut",
			fair.WorstSlow, greedy.WorstSlow)
	}
	if fair.EnergyJ > greedy.EnergyJ {
		t.Errorf("fair energy %.4f J exceeds greedy %.4f J under the cut", fair.EnergyJ, greedy.EnergyJ)
	}
	if fair.Jain < greedy.Jain {
		t.Errorf("fair Jain %.4f below greedy %.4f under the cut", fair.Jain, greedy.Jain)
	}
	// The dip stresses harder; fairness must not invert there either.
	fairDip := fastCapRow(t, rows, "fair", "dip")
	greedyDip := fastCapRow(t, rows, "greedy", "dip")
	if fairDip.Spread > greedyDip.Spread {
		t.Errorf("fair spread %.4f exceeds greedy %.4f in the dip", fairDip.Spread, greedyDip.Spread)
	}
}

func TestFastCapSegmentsPartitionEpochs(t *testing.T) {
	rows, err := NewRunner(0).FastCap(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9 (3 strategies × 3 segments)", len(rows))
	}
	for _, strat := range []string{"fair", "greedy", "uniform"} {
		total := 0
		for _, seg := range []string{"steady", "cut", "dip"} {
			r := fastCapRow(t, rows, strat, seg)
			total += r.Epochs
			if r.Epochs == 0 {
				t.Errorf("%s/%s has no epochs", strat, seg)
			}
			if !(r.WorstSlow >= 1) {
				t.Errorf("%s/%s worst slowdown %.4f below 1", strat, seg, r.WorstSlow)
			}
			if r.Jain <= 0 || r.Jain > 1+1e-9 {
				t.Errorf("%s/%s Jain %.4f outside (0,1]", strat, seg, r.Jain)
			}
		}
		if total != 12 {
			t.Errorf("%s: segments cover %d epochs, want 12", strat, total)
		}
	}
}

// TestFastCapReplayBitIdentical replays the reduced grid and requires
// bit-identical rows: the study is a pure function of (seed, nodes, epochs)
// even though the three strategies run concurrently.
func TestFastCapReplayBitIdentical(t *testing.T) {
	a, err := NewRunner(0).FastCap(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(0).FastCap(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Strategy != b[i].Strategy || a[i].Segment != b[i].Segment ||
			a[i].Epochs != b[i].Epochs || a[i].Clamped != b[i].Clamped ||
			math.Float64bits(a[i].EnergyJ) != math.Float64bits(b[i].EnergyJ) ||
			math.Float64bits(a[i].WorstSlow) != math.Float64bits(b[i].WorstSlow) ||
			math.Float64bits(a[i].Spread) != math.Float64bits(b[i].Spread) ||
			math.Float64bits(a[i].Jain) != math.Float64bits(b[i].Jain) {
			t.Fatalf("row %d diverged across replays:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestFastCapValidatesGrid(t *testing.T) {
	if _, err := NewRunner(0).FastCap(-1, 12); err == nil {
		t.Error("negative fleet accepted")
	}
	if _, err := NewRunner(0).FastCap(3, 3); err == nil {
		t.Error("too few epochs accepted")
	}
}

func TestFormatFastCap(t *testing.T) {
	rows, err := NewRunner(0).FastCap(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFastCap(rows)
	for _, want := range []string{"strategy", "fair", "greedy", "uniform", "cut", "dip", "jain"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// TestFastCapContracts checks the rebalancer's budget contracts on every
// epoch of the committed -exp fastcap trajectory (6 nodes, 36 epochs,
// steady/cut/dip) under each strategy: the assignments never sum above the
// global budget, and no node whose decision was not clamped is predicted
// to draw more than its assignment. The trajectory is built here, so the
// property lives beside it rather than in internal/fastcap.
func TestFastCapContracts(t *testing.T) {
	const nodes, epochs = 6, 36
	cfg, obs, provisioned, err := fastCapFleet(&policy.TableCache{}, nodes, epochs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []fastcap.Strategy{fastcap.Fair, fastcap.Greedy, fastcap.Uniform} {
		reb := fastcap.NewRebalancer(s)
		for n := range nodes {
			if err := reb.AddNode(fmt.Sprintf("node-%02d", n), cfg); err != nil {
				t.Fatal(err)
			}
		}
		var eps []fastcap.NodeEpoch
		for e := range epochs {
			seg, frac := fastCapSegment(e, epochs)
			budget := provisioned * frac
			if eps, err = reb.Epoch(budget, obs[e], eps[:0]); err != nil {
				t.Fatalf("%s epoch %d (%s): %v", s, e, seg, err)
			}
			sum := 0.0
			for _, ne := range eps {
				sum += ne.Assigned
				if !ne.Clamped && ne.Power > ne.Assigned {
					t.Errorf("%s epoch %d (%s): %s predicted at %.6f W over its %.6f W assignment, unclamped",
						s, e, seg, ne.ID, ne.Power, ne.Assigned)
				}
			}
			if sum > budget {
				t.Errorf("%s epoch %d (%s): assignments sum to %.6f W over the %.6f W budget", s, e, seg, sum, budget)
			}
		}
	}
}

// TestFastCapBenchFleetObservationsDiffer checks that the benchmark
// fixture builds at both fleet sizes the benchmarks use: its constructor
// fails when any node's two observation sets are bit-equal, which would
// let the cold RebalancerEpoch row keep a frontier.
func TestFastCapBenchFleetObservationsDiffer(t *testing.T) {
	for _, nodes := range []int{1, 8} {
		if _, err := FastCapBenchFleet(nodes); err != nil {
			t.Errorf("%d nodes: %v", nodes, err)
		}
	}
}

// TestRebalancerEpochEvals pins the work behind the cold RebalancerEpoch
// row: a cold epoch on each of the fixture's observation sets evaluates
// the same number of operating points every time, and no more than the
// early-exiting walk did when the row was last re-measured (14,341 on Obs,
// 14,414 on Later; the walk without the early exit took 21,310 and 21,427).
func TestRebalancerEpochEvals(t *testing.T) {
	fx, err := FastCapBenchFleet(8)
	if err != nil {
		t.Fatal(err)
	}
	r := fastcap.NewRebalancer(fastcap.Fair)
	for n := range fx.Obs {
		if err := r.AddNode(fmt.Sprintf("node-%02d", n), fx.Cfg); err != nil {
			t.Fatal(err)
		}
	}
	var eps []fastcap.NodeEpoch
	var got [2][2]int64
	for round := range got {
		for k, set := range [2][]policy.Observation{fx.Obs, fx.Later} {
			before := r.Evals()
			if eps, err = r.Epoch(0.8*fx.Provisioned, set, eps[:0]); err != nil {
				t.Fatal(err)
			}
			got[round][k] = r.Evals() - before
		}
	}
	if got[0] != got[1] {
		t.Errorf("cold epochs evaluated %v points, then %v", got[0], got[1])
	}
	if got[0][0] > 14341 || got[0][1] > 14414 {
		t.Errorf("cold epochs on Obs and Later evaluated %v points, want at most [14341 14414]", got[0])
	}
	t.Logf("cold epochs on Obs and Later evaluated %v points", got[0])
}
