package core

// Controller-level tests of CoScale on the memoized per-epoch prediction
// tables (DESIGN.md §10): the warm search allocates nothing, Reset replays
// bit-identically, and the search's work counters add up. The tables'
// bit-identity with the direct model is TestTablesBitIdenticalToDirect in
// internal/policy.

import (
	"testing"
	"time"

	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/trace"
)

// propCfg builds a config with coreSteps/memSteps-point ladders.
func propCfg(n, coreSteps, memSteps int) policy.Config {
	return policy.Config{
		NCores:     n,
		CoreLadder: must(freq.CoreLadderN(coreSteps)),
		MemLadder:  must(freq.MemLadderN(memSteps)),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(n),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
	}
}

// randObs draws a random but physically plausible profiling observation:
// per-core intensities spanning compute-bound to memory-bound, MLP both at
// the ==1 fast path and above it, and varied aggregate memory traffic.
func randObs(rng *trace.Rand, n int) policy.Observation {
	obs := policy.Observation{
		Window:     100e-6 + rng.Float64()*400e-6,
		CoreSteps:  policy.ZeroSteps(n),
		Cores:      make([]policy.CoreObs, n),
		MemRate:    1e8 + rng.Float64()*4e8,
		MemLatency: 40e-9 + rng.Float64()*80e-9,
		UtilBus:    0.1 + rng.Float64()*0.6,
		BusyFrac:   0.2 + rng.Float64()*0.7,
	}
	for i := range obs.Cores {
		beta := 0.0002 + rng.Float64()*0.02
		mlp := 1.0
		if rng.Float64() < 0.3 {
			mlp = 1 + rng.Float64()*3
		}
		obs.Cores[i] = policy.CoreObs{
			Instructions: 100_000 + rng.Uint64()%2_000_000,
			Stats: perf.CoreStats{
				CPIBase:     0.9 + rng.Float64()*0.8,
				Alpha:       0.002 + rng.Float64()*0.03,
				StallL2:     7.5e-9,
				Beta:        beta,
				MemPerInstr: beta * (1.1 + rng.Float64()),
				MLP:         mlp,
			},
			L2PerInstr: 0.005 + rng.Float64()*0.03,
			Mix: trace.InstrMix{ALU: 0.2 + rng.Float64()*0.2, FPU: rng.Float64() * 0.3,
				Branch: 0.05 + rng.Float64()*0.1, LoadStore: 0.2 + rng.Float64()*0.2},
			IPS: 1e9 + rng.Float64()*3e9,
		}
	}
	return obs
}

// TestTablePathZeroAllocWarm gates the memoized path's steady state directly
// at the controller level: once the per-epoch tables and scratch are warm,
// Decide on the table path must not allocate, even across *changing*
// observations (table Reset reuses its backing arrays).
func TestTablePathZeroAllocWarm(t *testing.T) {
	cfg := propCfg(64, 10, 10)
	cs := must(New(cfg))
	rng := trace.NewRand(7)
	a := randObs(rng, 64)
	b := randObs(rng, 64)
	cs.Decide(a) // warm-up sizes every scratch buffer and table
	cs.Decide(b)
	obs := [2]policy.Observation{a, b}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		cs.Decide(obs[i&1])
		i++
	})
	if avg != 0 {
		t.Errorf("warm table-path Decide allocates %.1f times per call, want 0", avg)
	}
}

// TestResetBitIdentity pins CoScale.Reset's contract: a reset controller
// must replay a decision/observation sequence bit-identically to a fresh
// one, with warm scratch invisible in the output.
func TestResetBitIdentity(t *testing.T) {
	cfg := propCfg(16, 10, 10)
	cs := must(New(cfg))
	run := func(c *CoScale) []policy.Decision {
		rng := trace.NewRand(99)
		var out []policy.Decision
		for k := 0; k < 5; k++ {
			obs := randObs(rng, 16)
			out = append(out, c.Decide(obs).Clone())
			c.Observe(obs)
		}
		return out
	}
	first := run(cs)
	cs.Reset()
	second := run(cs)
	fresh := run(must(New(cfg)))
	for k := range first {
		for _, got := range []struct {
			name string
			d    policy.Decision
		}{{"reset", second[k]}, {"fresh", fresh[k]}} {
			if got.d.MemStep != first[k].MemStep {
				t.Fatalf("epoch %d (%s): MemStep %d vs %d", k, got.name, got.d.MemStep, first[k].MemStep)
			}
			for i := range first[k].CoreSteps {
				if got.d.CoreSteps[i] != first[k].CoreSteps[i] {
					t.Fatalf("epoch %d (%s): CoreSteps[%d] %d vs %d",
						k, got.name, i, got.d.CoreSteps[i], first[k].CoreSteps[i])
				}
			}
		}
	}
}

// TestSearchStatsCounts sanity-checks the per-decision work counters the
// benchmarks and the serving layer report: a non-trivial decision commits
// at least one move, and every committed group move plus every candidate
// memory evaluation contributes to Evals.
func TestSearchStatsCounts(t *testing.T) {
	cfg := propCfg(16, 10, 10)
	cs := must(New(cfg))
	obs := randObs(trace.NewRand(3), 16)
	d := cs.Decide(obs)
	st := cs.SearchStats()
	total := d.MemStep
	for _, s := range d.CoreSteps {
		total += s
	}
	if total > 0 && st.Moves == 0 {
		t.Errorf("decision scaled %d steps but SearchStats.Moves = 0", total)
	}
	if st.Evals < st.Moves {
		t.Errorf("Evals %d < Moves %d: every group move runs the joint model", st.Evals, st.Moves)
	}
	if st.Moves < d.MemStep {
		t.Errorf("Moves %d < MemStep %d: each memory step is one move", st.Moves, d.MemStep)
	}
	if st.Moves > 0 && st.CoreEvals == 0 {
		t.Errorf("committed %d moves with zero core evaluations", st.Moves)
	}
}
