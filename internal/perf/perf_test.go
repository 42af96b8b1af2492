package perf

import (
	"math"
	"testing"
	"testing/quick"

	"coscale/internal/memsys"
)

func computeCore() CoreStats {
	return CoreStats{CPIBase: 1.1, Alpha: 0.003, StallL2: 7.5e-9, Beta: 0.0003,
		MemPerInstr: 0.0004, MLP: 1}
}

func memoryCore() CoreStats {
	return CoreStats{CPIBase: 1.4, Alpha: 0.03, StallL2: 7.5e-9, Beta: 0.015,
		MemPerInstr: 0.02, MLP: 1}
}

func TestTPIComponents(t *testing.T) {
	t.Parallel()
	c := CoreStats{CPIBase: 2, Alpha: 0.01, StallL2: 10e-9, Beta: 0.001, MLP: 1}
	got := c.TPI(2e9, 100e-9)
	want := 2/2e9 + 0.01*10e-9 + 0.001*100e-9
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("TPI = %g, want %g", got, want)
	}
}

func TestTPIMLPDividesMemStall(t *testing.T) {
	t.Parallel()
	c := memoryCore()
	inOrder := c.TPI(4e9, 100e-9)
	c.MLP = 4
	ooo := c.TPI(4e9, 100e-9)
	if ooo >= inOrder {
		t.Error("MLP did not reduce TPI")
	}
	memComponent := c.Beta * 100e-9
	if math.Abs((inOrder-ooo)-memComponent*0.75) > 1e-15 {
		t.Errorf("MLP=4 should remove 3/4 of the memory stall")
	}
	// MLP below 1 is treated as 1.
	c.MLP = 0.2
	if c.TPI(4e9, 100e-9) != inOrder {
		t.Error("MLP<1 not clamped to 1")
	}
}

func TestTPIZeroFrequency(t *testing.T) {
	t.Parallel()
	c := computeCore()
	if !math.IsInf(c.TPI(0, 50e-9), 1) {
		t.Error("TPI at 0 Hz should be +Inf")
	}
}

func TestSolveConverges(t *testing.T) {
	t.Parallel()
	sv := NewSolver(memsys.DefaultParams())
	cores := make([]CoreStats, 16)
	for i := range cores {
		cores[i] = memoryCore()
	}
	res := sv.SolveUniform(cores, 4e9, 800e6)
	if res.Iterations >= sv.MaxIter {
		t.Errorf("solver did not converge in %d iterations", res.Iterations)
	}
	for i, tpi := range res.TPI {
		if tpi <= 0 || math.IsNaN(tpi) {
			t.Fatalf("core %d TPI = %g", i, tpi)
		}
	}
	if res.MemRate <= 0 {
		t.Error("memory rate should be positive")
	}
	// Self-consistency: recomputing TPI from the final latency matches.
	for i, c := range cores {
		want := c.TPI(4e9, res.Mem.Latency)
		if math.Abs(res.TPI[i]-want)/want > 1e-6 {
			t.Errorf("core %d TPI inconsistent with final latency", i)
		}
	}
}

func TestSolveMemoryCouplingSlowsEveryone(t *testing.T) {
	t.Parallel()
	// 15 compute cores + 1 memory hog: adding the hog must raise the
	// compute cores' TPI via shared-queue contention.
	sv := NewSolver(memsys.DefaultParams())
	quiet := make([]CoreStats, 16)
	for i := range quiet {
		quiet[i] = computeCore()
	}
	base := sv.SolveUniform(quiet, 4e9, 206e6)

	noisy := make([]CoreStats, 16)
	copy(noisy, quiet)
	for i := 8; i < 16; i++ {
		noisy[i] = memoryCore()
	}
	loaded := sv.SolveUniform(noisy, 4e9, 206e6)
	if loaded.TPI[0] <= base.TPI[0] {
		t.Errorf("contention did not slow the compute core: %g <= %g", loaded.TPI[0], base.TPI[0])
	}
}

func TestSolveMemoryFrequencyMattersMoreWhenMemoryBound(t *testing.T) {
	t.Parallel()
	sv := NewSolver(memsys.DefaultParams())
	mk := func(c CoreStats) []CoreStats {
		out := make([]CoreStats, 16)
		for i := range out {
			out[i] = c
		}
		return out
	}
	slowdown := func(cores []CoreStats) float64 {
		hi := sv.SolveUniform(cores, 4e9, 800e6)
		lo := sv.SolveUniform(cores, 4e9, 206e6)
		return lo.TPI[0] / hi.TPI[0]
	}
	ilp := slowdown(mk(computeCore()))
	mem := slowdown(mk(memoryCore()))
	if mem < ilp*1.5 {
		t.Errorf("memory-bound slowdown %.3f not well above compute-bound %.3f", mem, ilp)
	}
	if ilp > 1.05 {
		t.Errorf("compute-bound workload slowed %.3fx by memory DVFS; should be nearly free", ilp)
	}
}

func TestSolveCoreFrequencyMattersMoreWhenComputeBound(t *testing.T) {
	t.Parallel()
	sv := NewSolver(memsys.DefaultParams())
	mk := func(c CoreStats) []CoreStats {
		out := make([]CoreStats, 16)
		for i := range out {
			out[i] = c
		}
		return out
	}
	slowdown := func(cores []CoreStats) float64 {
		hi := sv.SolveUniform(cores, 4e9, 800e6)
		lo := sv.SolveUniform(cores, 2.2e9, 800e6)
		return lo.TPI[0] / hi.TPI[0]
	}
	ilp := slowdown(mk(computeCore()))
	mem := slowdown(mk(memoryCore()))
	if ilp <= mem {
		t.Errorf("core scaling should hurt ILP (%.3f) more than MEM (%.3f)", ilp, mem)
	}
}

func TestSolveStableUnderSaturation(t *testing.T) {
	t.Parallel()
	sv := NewSolver(memsys.DefaultParams())
	cores := make([]CoreStats, 16)
	for i := range cores {
		c := memoryCore()
		c.MemPerInstr = 0.2 // absurd traffic
		cores[i] = c
	}
	res := sv.SolveUniform(cores, 4e9, 206e6)
	for _, tpi := range res.TPI {
		if math.IsNaN(tpi) || math.IsInf(tpi, 0) || tpi <= 0 {
			t.Fatalf("saturated solve produced TPI %g", tpi)
		}
	}
	if res.Mem.UtilBus > 0.971 {
		t.Errorf("bus utilization %g exceeds clamp", res.Mem.UtilBus)
	}
}

func TestSolveMismatchedLengthsPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("Solve with mismatched lengths did not panic")
		}
	}()
	NewSolver(memsys.DefaultParams()).Solve(make([]CoreStats, 2), make([]float64, 3), 800e6)
}

func TestSolveEmpty(t *testing.T) {
	t.Parallel()
	res := NewSolver(memsys.DefaultParams()).Solve(nil, nil, 800e6)
	if res.MemRate != 0 || len(res.TPI) != 0 {
		t.Errorf("empty solve = %+v", res)
	}
}

// Property: TPI is monotonically non-increasing in core frequency and
// non-increasing in memory frequency (ground truth must never reward
// slowing down).
func TestSolveMonotonicity(t *testing.T) {
	t.Parallel()
	sv := NewSolver(memsys.DefaultParams())
	f := func(betaRaw, trafficRaw uint8) bool {
		c := CoreStats{
			CPIBase:     1.2,
			Alpha:       0.01,
			StallL2:     7.5e-9,
			Beta:        float64(betaRaw) / 255.0 * 0.02,
			MemPerInstr: float64(trafficRaw) / 255.0 * 0.03,
			MLP:         1,
		}
		cores := []CoreStats{c, c, c, c}
		// TPI must not decrease as the core clock drops...
		prev := 0.0
		for _, hz := range []float64{4e9, 3e9, 2.2e9} {
			r := sv.SolveUniform(cores, hz, 800e6)
			if r.TPI[0] < prev*(1-1e-6) {
				return false
			}
			prev = r.TPI[0]
		}
		// ...nor as the memory clock drops.
		prev = 0.0
		for _, mhz := range []float64{800e6, 500e6, 206e6} {
			r := sv.SolveUniform(cores, 4e9, mhz)
			if r.TPI[0] < prev*(1-1e-6) {
				return false
			}
			prev = r.TPI[0]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSlackAccounting(t *testing.T) {
	t.Parallel()
	s := NewSlack(0.10)
	// Epoch 1: ran exactly at max speed -> gained the full 10% allowance.
	s.Record(5e-3, 5e-3)
	if got := s.Available(); math.Abs(got-0.5e-3) > 1e-12 {
		t.Errorf("Available() = %g, want 5e-4", got)
	}
	// Epoch 2: ran 20% slow -> slack shrinks by 0.5ms.
	s.Record(5e-3, 6e-3)
	if got := s.Available(); math.Abs(got-0.0) > 1e-12 {
		t.Errorf("Available() after overspend = %g, want 0", got)
	}
	s.Record(1e-3, 0)
	s.Reset()
	if s.Available() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestSlackGoesNegative(t *testing.T) {
	t.Parallel()
	s := NewSlack(0.05)
	s.Record(1e-3, 2e-3) // 100% slowdown on a 5% bound
	if s.Available() >= 0 {
		t.Error("slack should be negative after bound violation")
	}
}
