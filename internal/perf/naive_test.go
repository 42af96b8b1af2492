package perf

import (
	"math"
	"testing"

	"coscale/internal/memsys"
	"coscale/internal/trace"
)

// naiveSolve is the damped fixed point written plainly, as the reference
// Solver.iterate is held to: every pass recomputes every core's TPI with
// CoreStats.TPI, the relative change with a division and convergence on the
// largest change, with no pass skipped. repeats counts the passes that ran
// at the same latency as the pass before them, and nonPos those of them
// that started with some stored TPI not > 0.
func naiveSolve(cores []CoreStats, hz []float64, model memsys.LoadModel, tol float64, maxIter int) (res Result, repeats, nonPos int) {
	n := len(cores)
	res.TPI = make([]float64, n)
	res.IPS = make([]float64, n)
	load := model.Evaluate(0)
	var prevLat float64
	iter := 0
	for ; iter < maxIter; iter++ {
		lat := load.Latency
		if iter > 0 && math.Float64bits(lat) == math.Float64bits(prevLat) {
			repeats++
			for _, t := range res.TPI {
				if !(t > 0) {
					nonPos++
					break
				}
			}
		}
		prevLat = lat
		rate, maxRel := 0.0, 0.0
		for i, c := range cores {
			prev := res.TPI[i]
			t := c.TPI(hz[i], lat)
			rel := 1.0
			if prev > 0 {
				rel = math.Abs(t-prev) / prev
			}
			if rel > maxRel {
				maxRel = rel
			}
			res.TPI[i] = t
			v := 0.0
			if t > 0 {
				v = 1 / t
			}
			res.IPS[i] = v
			rate += v * c.MemPerInstr
		}
		if iter > 0 {
			rate = 0.5*rate + 0.5*res.MemRate
		}
		res.MemRate = rate
		load = model.Evaluate(rate)
		if iter > 0 && maxRel < tol {
			break
		}
	}
	res.Mem = load
	res.Iterations = iter + 1
	return res, repeats, nonPos
}

// TestSolverMatchesNaiveLoop: SolveInto and SolveTable must equal the naive
// loop by Float64bits in every TPI, IPS, MemRate and Mem field, and in
// Iterations, under the controllers' and ground truth's tolerances. The
// fixtures cover all-MLP1 and mixed-MLP cores, zero-Hz cores (SolveInto
// only: a StepTable holds positive frequencies), saturated 1024-core
// systems on which the naive loop repeats a latency — the pass
// Solver.iterate skips — and a system whose repeated latency meets a zero
// TPI, where the skip must not fire.
func TestSolverMatchesNaiveLoop(t *testing.T) {
	stepHz := []float64{4e9, 3.8e9, 3.6e9, 3.4e9, 3.2e9, 3e9, 2.8e9, 2.6e9, 2.4e9, 2.2e9}
	busHz := []float64{800e6, 533e6, 200e6}
	mem := memsys.DefaultParams()
	rng := trace.NewRand(29)

	// saturated draws cores like the 1024-core search benchmark's: demand far
	// beyond the memory's peak, so the utilization clamp repeats latencies.
	saturated := func(n int) []CoreStats {
		cores := make([]CoreStats, n)
		for i := range cores {
			beta := 0.0005 + rng.Float64()*0.01
			cores[i] = CoreStats{CPIBase: 1.1 + rng.Float64()*0.4, Alpha: 0.01, StallL2: 7.5e-9,
				Beta: beta, MemPerInstr: beta * 1.4, MLP: 1}
		}
		return cores
	}
	mixed := func(n int, mlps []float64) []CoreStats {
		cores := make([]CoreStats, n)
		for i := range cores {
			if i%2 == 0 {
				cores[i] = computeCore()
			} else {
				cores[i] = memoryCore()
			}
			cores[i].CPIBase *= 0.8 + 0.4*rng.Float64()
			cores[i].MLP = mlps[rng.Intn(uint64(len(mlps)))]
		}
		return cores
	}
	// zeroTPI adds cores whose TPI is exactly 0 to a saturated system.
	zeroTPI := func(n int) []CoreStats {
		cores := saturated(n)
		for i := 0; i < n; i += 7 {
			cores[i] = CoreStats{MLP: 1}
		}
		return cores
	}

	type fixture struct {
		name    string
		cores   []CoreStats
		zeroHz  bool // some cores at 0 Hz: SolveInto only
		repeats bool // the naive loop must repeat a latency
		nonPos  bool // ... with a stored TPI not > 0
	}
	fixtures := []fixture{
		{name: "mlp1-16", cores: mixed(16, []float64{1})},
		{name: "mlp-mixed-16", cores: mixed(16, []float64{0.5, 1, 2, 4.5})},
		{name: "mlp-mixed-128", cores: mixed(128, []float64{1, 1, 3})},
		{name: "zero-hz-mlp1", cores: mixed(16, []float64{1}), zeroHz: true},
		{name: "zero-hz-mixed", cores: mixed(16, []float64{1, 2.5}), zeroHz: true},
		{name: "saturated-1024", cores: saturated(1024), repeats: true},
		{name: "saturated-1024-mlp", cores: mixed(1024, []float64{1, 2}), repeats: true},
		{name: "zero-tpi-1024", cores: zeroTPI(1024), repeats: true, nonPos: true},
	}
	solvers := []Solver{
		{Tol: 1e-6, MaxIter: 25}, {Tol: 1e-9, MaxIter: 60},
		// MaxIter 1 stops after pass 0; MaxIter 2 after the first pass
		// that screens for convergence.
		{Tol: 1e-6, MaxIter: 1}, {Tol: 1e-6, MaxIter: 2},
		// Tol 2 passes every TPI check, so convergence rests on the
		// latency check alone (oneBlocksConv false).
		{Tol: 2, MaxIter: 25},
	}

	for _, f := range fixtures {
		n := len(f.cores)
		var tbl StepTable
		tbl.Reset(f.cores, stepHz)
		sawRepeat, sawNonPos := false, false
		for trial := 0; trial < 4; trial++ {
			steps := make([]int, n)
			hz := make([]float64, n)
			for i := range steps {
				if trial > 0 {
					steps[i] = int(rng.Intn(uint64(len(stepHz))))
				}
				hz[i] = stepHz[steps[i]]
				if f.zeroHz && i%5 == 2 {
					hz[i] = 0
				}
			}
			for _, bus := range busHz {
				model := mem.ModelAt(bus)
				for _, sv := range solvers {
					want, repeats, nonPos := naiveSolve(f.cores, hz, model, sv.Tol, sv.MaxIter)
					sawRepeat = sawRepeat || repeats > 0
					sawNonPos = sawNonPos || nonPos > 0

					sv.Mem = mem
					var got Result
					sv.SolveInto(&got, f.cores, hz, bus)
					requireSameResult(t, f.name+"/SolveInto", got, want)
					if !f.zeroHz {
						var res Result
						sv.SolveTable(&res, &tbl, steps, model)
						requireSameResult(t, f.name+"/SolveTable", res, want)
					}
				}
			}
		}
		if sawRepeat != f.repeats || sawNonPos != f.nonPos {
			t.Errorf("%s: naive loop repeated a latency %v (with a TPI not > 0 %v), fixture expects %v (%v)",
				f.name, sawRepeat, sawNonPos, f.repeats, f.nonPos)
		}
	}
}

// requireSameResult fails unless got and want agree by Float64bits in every
// field, and in Iterations.
func requireSameResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, naive loop %d", name, got.Iterations, want.Iterations)
	}
	if !same(got.MemRate, want.MemRate) {
		t.Fatalf("%s: MemRate %v, naive loop %v", name, got.MemRate, want.MemRate)
	}
	g, w := got.Mem, want.Mem
	if !same(g.Latency, w.Latency) || !same(g.XiBus, w.XiBus) || !same(g.XiBank, w.XiBank) ||
		!same(g.UtilBus, w.UtilBus) || !same(g.UtilBank, w.UtilBank) {
		t.Fatalf("%s: Mem %+v, naive loop %+v", name, g, w)
	}
	for i := range want.TPI {
		if !same(got.TPI[i], want.TPI[i]) || !same(got.IPS[i], want.IPS[i]) {
			t.Fatalf("%s: core %d TPI/IPS %v/%v, naive loop %v/%v",
				name, i, got.TPI[i], got.IPS[i], want.TPI[i], want.IPS[i])
		}
	}
}
