// Package perf implements the paper's performance model (§3.3, Eq. 1):
//
//	E[CPI] = (E[TPI_CPU] + α·E[TPI_L2] + β·E[TPI_Mem]) · F_CPU
//
// expressed here in time-per-instruction (TPI, seconds) form, together with
// the joint fixed-point solver that couples every core's instruction rate to
// the shared memory system's queueing delays. The same solver serves as the
// fast backend's ground truth (fed with true trace statistics) and as the
// controllers' online prediction model (fed with counter-derived
// statistics); see DESIGN.md §4.
package perf

import (
	"math"

	"coscale/internal/memsys"
)

// CoreStats is the per-core, per-instruction characterization the model
// needs — exactly the quantities derivable from the paper's performance
// counters during a profiling window.
type CoreStats struct {
	// CPIBase is core cycles per instruction spent computing (including
	// L1 hits): (Cycles − StallL2 − StallMem) / TIC.
	CPIBase float64
	// Alpha is the fraction of instructions that access the L2 and stall
	// (TMS/TIC); StallL2 is the average pipeline stall per such
	// instruction, in seconds (frequency-independent: the L2 domain does
	// not scale).
	Alpha   float64
	StallL2 float64
	// Beta is the fraction of instructions that miss the L2 and stall
	// (TLS/TIC).
	Beta float64
	// MemPerInstr is the memory traffic generated per instruction
	// (demand misses + writebacks + prefetch fills), in 64 B requests.
	MemPerInstr float64
	// MLP is the effective memory-level parallelism: the ratio of memory
	// latency to observed per-miss pipeline stall (1 for in-order cores
	// with a single outstanding miss).
	MLP float64
}

// TPI returns the core's time per instruction in seconds at core frequency
// coreHz when the average memory latency is memLatency seconds.
func (s CoreStats) TPI(coreHz, memLatency float64) float64 {
	if coreHz <= 0 {
		return math.Inf(1)
	}
	mlp := s.MLP
	if mlp < 1 {
		mlp = 1
	}
	return s.CPIBase/coreHz + s.Alpha*s.StallL2 + s.Beta*memLatency/mlp
}

// Result is the solved steady state of the full system at one frequency
// combination.
type Result struct {
	TPI        []float64   // seconds per instruction, per core
	IPS        []float64   // instructions per second, per core
	MemRate    float64     // aggregate memory requests per second
	Mem        memsys.Load // memory-system state at that rate
	Iterations int         // fixed-point iterations used
}

// Solver couples the per-core model to the memory queueing model. A Solver
// carries scratch buffers for the fixed-point iteration, so concurrent calls
// on one Solver are not safe; give each goroutine its own.
type Solver struct {
	Mem memsys.Params
	// Tol is the convergence tolerance on relative TPI change
	// (default 1e-9); MaxIter bounds iterations (default 60).
	Tol     float64
	MaxIter int

	// Per-solve constants hoisted out of the fixed-point loop: for core i,
	// fixed[i] = CPIBase/coreHz + Alpha*StallL2 (the latency-independent TPI
	// terms), beta[i] and mpi[i] mirror the CoreStats fields, and mlpn[i] is
	// MLP clamped to >= 1, with 0 as the sentinel for coreHz <= 0 (infinite
	// TPI).
	fixed []float64
	beta  []float64
	mlpn  []float64
	mpi   []float64
}

// NewSolver returns a Solver over the given memory parameters with default
// convergence settings.
func NewSolver(mem memsys.Params) *Solver {
	return &Solver{Mem: mem, Tol: 1e-9, MaxIter: 60}
}

// Solve computes the joint steady state: every core's TPI depends on memory
// latency, which depends on the aggregate request rate, which depends on
// every core's instruction rate. The map is a damped fixed-point iteration;
// it converges because higher latency lowers instruction rates, which lowers
// load (a monotone negative feedback).
//
// coreHz[i] is core i's frequency; busHz is the memory bus frequency.
func (sv *Solver) Solve(cores []CoreStats, coreHz []float64, busHz float64) Result {
	var res Result
	sv.SolveInto(&res, cores, coreHz, busHz)
	return res
}

// SolveInto is Solve writing into res, reusing res.TPI/res.IPS when their
// capacities suffice — the allocation-free form the simulation and search
// hot paths use (see DESIGN.md §7). The result is bit-identical to Solve's.
//
//hot:path
func (sv *Solver) SolveInto(res *Result, cores []CoreStats, coreHz []float64, busHz float64) {
	if len(cores) != len(coreHz) {
		//lint:ignore nopanic caller bug, not an input error: slices are built pairwise by the engine
		panic("perf: cores and coreHz length mismatch")
	}
	n := len(cores)

	// Hoist everything constant across iterations: the memory service times
	// at busHz, and each core's latency-independent TPI terms. The remaining
	// per-iteration arithmetic — fixed + (Beta*latency)/mlp — performs the
	// same operations on the same values as CoreStats.TPI, so the fixed
	// point reached is bit-identical.
	sv.fixed = Grow(sv.fixed, n)
	sv.beta = Grow(sv.beta, n)
	sv.mlpn = Grow(sv.mlpn, n)
	sv.mpi = Grow(sv.mpi, n)
	allMLP1 := true
	for i, c := range cores {
		sv.beta[i] = c.Beta
		sv.mpi[i] = c.MemPerInstr
		if coreHz[i] <= 0 {
			sv.mlpn[i] = 0 // the infinite-TPI sentinel
			allMLP1 = false
			continue
		}
		mlp := c.MLP
		if mlp < 1 {
			mlp = 1
		}
		if mlp != 1 { //lint:ignore floateq exact specialization dispatch: x/1.0 == x in IEEE 754, so the MLP==1 fast path is bitwise-equal by construction
			allMLP1 = false
		}
		sv.mlpn[i] = mlp
		sv.fixed[i] = c.CPIBase/coreHz[i] + c.Alpha*c.StallL2
	}
	model := sv.Mem.ModelAt(busHz)
	sv.iterate(res, model, sv.fixed, sv.beta, sv.mlpn, sv.mpi, allMLP1)
}

// iterate runs the damped fixed-point iteration over prepared per-core
// constant arrays. It is the single solver core shared by SolveInto (direct
// prologue) and SolveTable (memoized table gather), which is what makes the
// two entry points bit-identical by construction.
//
// The loop is written for speed — it is the dominant cost of every search
// step at large core counts — but every transformation relative to the
// naive form is exact:
//
//   - iteration 0 never reads the previous TPI (the original zero-filled
//     res.TPI forced maxRel = 1 there, and the loop cannot break before
//     iteration 1 anyway), so it runs as a separate screen-free pass and
//     res.TPI/res.IPS need not be zeroed between solves;
//   - when every core has MLP == 1 the division by mlp is skipped — IEEE 754
//     guarantees x/1.0 == x bitwise;
//   - the convergence test replaces the per-core division rel = |Δ|/prev
//     with two multiply-compares against tol·(1∓1e-12)·prev: strictly inside
//     the guard band the exact quotient provably compares the same way
//     (rounding error is ~2⁻⁵², four orders below the band), and on the
//     band the original division decides. The flag it computes is exactly
//     "maxRel < tol": any prev ≤ 0 core pinned maxRel to at least 1, which
//     blocks convergence iff !(1 < tol) (hoisted as oneBlocksConv).
//
//hot:path
func (sv *Solver) iterate(res *Result, model memsys.LoadModel, fixed, beta, mlpn, mpi []float64, allMLP1 bool) {
	tol := sv.Tol
	if tol <= 0 {
		tol = 1e-9
	}
	maxIter := sv.MaxIter
	if maxIter <= 0 {
		maxIter = 60
	}
	n := len(fixed)
	res.TPI = Grow(res.TPI, n)
	res.IPS = Grow(res.IPS, n)
	tpis := res.TPI[:n]
	ips := res.IPS[:n]
	beta = beta[:n]
	mlpn = mlpn[:n]
	mpi = mpi[:n]

	// Iteration 0: compute the unloaded-latency point; no convergence screen.
	load := model.Evaluate(0)
	lat := load.Latency
	rate := 0.0
	if allMLP1 {
		for i := 0; i < n; i++ {
			t := fixed[i] + beta[i]*lat
			tpis[i] = t
			// No +Inf screen needed: for t = +Inf, 1/t is exactly +0.0,
			// the same value the screened branch would leave in v.
			v := 0.0
			if t > 0 {
				v = 1 / t
			}
			ips[i] = v
			rate += v * mpi[i]
		}
	} else {
		for i := 0; i < n; i++ {
			var t float64
			if m := mlpn[i]; m > 0 {
				t = fixed[i] + beta[i]*lat/m
			} else {
				t = math.Inf(1)
			}
			tpis[i] = t
			// No +Inf screen needed: for t = +Inf, 1/t is exactly +0.0,
			// the same value the screened branch would leave in v.
			v := 0.0
			if t > 0 {
				v = 1 / t
			}
			ips[i] = v
			rate += v * mpi[i]
		}
	}
	res.MemRate = rate
	load = model.Evaluate(rate)

	oneBlocksConv := !(1 < tol)
	tolLo := tol * (1 - 1e-12)
	tolHi := tol * (1 + 1e-12)
	iter := 1
	for ; iter < maxIter; iter++ {
		rate = 0.0
		conv := true
		lat = load.Latency
		if allMLP1 {
			for i := 0; i < n; i++ {
				prev := tpis[i]
				t := fixed[i] + beta[i]*lat
				tpis[i] = t
				if conv {
					if prev > 0 {
						d := t - prev
						if d < 0 {
							d = -d
						}
						if !(d < tolLo*prev) {
							if d > tolHi*prev || d/prev >= tol {
								conv = false
							}
						}
					} else if oneBlocksConv {
						conv = false
					}
				}
				v := 0.0
				if t > 0 { // t = +Inf yields exactly +0.0, no screen needed
					v = 1 / t
				}
				ips[i] = v
				rate += v * mpi[i]
			}
		} else {
			for i := 0; i < n; i++ {
				prev := tpis[i]
				var t float64
				if m := mlpn[i]; m > 0 {
					t = fixed[i] + beta[i]*lat/m
				} else {
					t = math.Inf(1)
				}
				tpis[i] = t
				if conv {
					if prev > 0 {
						d := t - prev
						if d < 0 {
							d = -d
						}
						if !(d < tolLo*prev) {
							if d > tolHi*prev || d/prev >= tol {
								conv = false
							}
						}
					} else if oneBlocksConv {
						conv = false
					}
				}
				v := 0.0
				if t > 0 { // t = +Inf yields exactly +0.0, no screen needed
					v = 1 / t
				}
				ips[i] = v
				rate += v * mpi[i]
			}
		}
		// Damp the rate to avoid oscillation near saturation.
		rate = 0.5*rate + 0.5*res.MemRate
		res.MemRate = rate
		load = model.Evaluate(rate)
		if conv {
			break
		}
	}
	res.Mem = load
	res.Iterations = iter + 1
}

// Resize returns s resized to length n with every element zeroed, reusing
// its backing array when the capacity suffices and allocating otherwise. It
// is the shared growth helper behind the hot paths' scratch buffers.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //hot:alloc-ok capacity miss: grow-only scratch, amortized to zero in steady state
	}
	s = s[:n]
	clear(s)
	return s
}

// Grow is Resize WITHOUT zeroing: the reused elements keep their old values.
// For buffers every element of which is written before it is read (the
// solver's working arrays, per-epoch snapshots), the clear is pure overhead.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) //hot:alloc-ok capacity miss: grow-only scratch, amortized to zero in steady state
	}
	return s[:n]
}

// StepTable memoizes, per candidate core-frequency step, every core's
// latency-independent TPI term fixed[i] = CPIBase/Hz(step) + Alpha·StallL2,
// together with the epoch-constant per-core arrays the fixed-point iteration
// reads (beta, clamped MLP, memory traffic per instruction). During one
// decision the search evaluates dozens of operating points over the same
// statistics; the table turns each evaluation's O(cores) prologue into an
// incremental gather that touches only the cores whose step changed since
// the previous evaluation — zero of them on a memory-frequency move.
//
// Reset builds every column, and the backing arrays are reused across
// epochs, so the steady state allocates nothing and every lookup is a
// plain (inlinable) slice read. Column storage is struct-of-arrays: every
// step's column lives in one flat backing array at stride n, so a marginal
// scan walking cores [lo, hi) at one step reads a single contiguous run of
// float64 lanes and adjacent columns prefetch linearly. A StepTable is not
// safe for concurrent use: SolveTable updates its working row.
type StepTable struct {
	n    int       // cores
	cols []float64 // flat [step*n + core] CPIBase/hz + Alpha*StallL2

	beta    []float64
	mlpn    []float64 // MLP clamped to >= 1
	mpi     []float64
	allMLP1 bool

	fixed []float64 // working row: FixedCol(cur[i])[i]
	cur   []int     // step the working row reflects per core; -1 = unset
}

// Reset re-points the table at a new epoch's statistics and candidate
// frequencies, building every column while reusing all backing arrays.
// Neither slice is retained; every hz must be positive (a frequency ladder
// guarantees it).
//
//hot:path
func (t *StepTable) Reset(stats []CoreStats, stepHz []float64) {
	n := len(stats)
	t.n = n
	steps := len(stepHz)
	if cap(t.cols) < steps*n {
		t.cols = make([]float64, steps*n) //hot:alloc-ok capacity miss: runs once until the ladder-sized scratch is warm
	}
	t.cols = t.cols[:steps*n]
	for s, hz := range stepHz {
		col := t.cols[s*n : s*n+n]
		for i, c := range stats {
			col[i] = c.CPIBase/hz + c.Alpha*c.StallL2
		}
	}
	t.beta = Grow(t.beta, n)
	t.mlpn = Grow(t.mlpn, n)
	t.mpi = Grow(t.mpi, n)
	t.fixed = Grow(t.fixed, n)
	if cap(t.cur) < n {
		t.cur = make([]int, n) //hot:alloc-ok capacity miss: runs once until the caller's scratch is warm
	}
	t.cur = t.cur[:n]
	allMLP1 := true
	for i, c := range stats {
		t.beta[i] = c.Beta
		t.mpi[i] = c.MemPerInstr
		mlp := c.MLP
		if mlp < 1 {
			mlp = 1
		}
		if mlp != 1 { //lint:ignore floateq exact specialization dispatch, see Solver.iterate
			allMLP1 = false
		}
		t.mlpn[i] = mlp
		t.cur[i] = -1
	}
	t.allMLP1 = allMLP1
}

// FixedCol returns the memoized latency-independent TPI column for ladder
// step s. The returned slice is a view into the table's flat column store,
// valid until the next Reset.
//
//hot:path
func (t *StepTable) FixedCol(s int) []float64 {
	return t.cols[s*t.n : s*t.n+t.n]
}

// FixedCols returns the flat column store: entry s*n+i is FixedCol(s)[i]
// for n cores. Valid until the next Reset.
//
//hot:path
func (t *StepTable) FixedCols() []float64 { return t.cols }

// LatencyTerm is the latency-dependent term of core i's TPI under memory
// latency lat: FixedCol(s)[i] + LatencyTerm(i, lat) is bit-identical to
// stats[i].TPI(hz[s], lat), since the memoized column holds the identical
// first two terms and this is the third, the same expression on the same
// values. Callers reading several steps of one core compute it once.
//
//hot:path
func (t *StepTable) LatencyTerm(i int, lat float64) float64 {
	return t.beta[i] * lat / t.mlpn[i]
}

// TPIPairAt returns core i's TPI at steps s and s+1 under latency lat,
// each bit-identical to CoreStats.TPI (see LatencyTerm). Marginal scoring
// reads exactly this adjacent-step pair per core.
//
//hot:path
func (t *StepTable) TPIPairAt(i, s int, lat float64) (cur, next float64) {
	blat := t.LatencyTerm(i, lat)
	return t.FixedCol(s)[i] + blat, t.FixedCol(s + 1)[i] + blat
}

// gather updates the working fixed row to the given step vector, touching
// only the cores whose step changed since the previous gather.
//
//hot:path
func (t *StepTable) gather(steps []int) {
	fixed := t.fixed
	cur := t.cur
	for i, s := range steps {
		if cur[i] == s {
			continue
		}
		cur[i] = s
		fixed[i] = t.FixedCol(s)[i]
	}
}

// SolveTable is SolveInto drawing its per-core constants from a memoized
// StepTable instead of recomputing them: the result is bit-identical to
// SolveInto(res, stats, hzOf(steps), busHz) over the statistics the table
// was Reset with, when model was built from the same memory parameters at
// busHz (memsys.Params.ModelAt is a pure function of its inputs). The search hot path pairs it with a
// memsys.ModelCache so a candidate evaluation performs no per-core model
// preparation at all.
//
//hot:path
func (sv *Solver) SolveTable(res *Result, tbl *StepTable, steps []int, model memsys.LoadModel) {
	if len(steps) != tbl.n {
		//lint:ignore nopanic caller bug, not an input error: the step vector and the table are built pairwise by the evaluator
		panic("perf: steps and table length mismatch")
	}
	tbl.gather(steps)
	sv.iterate(res, model, tbl.fixed, tbl.beta, tbl.mlpn, tbl.mpi, tbl.allMLP1)
}

// SolveUniform is a convenience wrapper for configurations where all cores
// share one frequency.
func (sv *Solver) SolveUniform(cores []CoreStats, coreHz, busHz float64) Result {
	//hot:alloc-ok per-epoch reference solve: one small slice per epoch, not per search evaluation
	hz := make([]float64, len(cores))
	for i := range hz {
		hz[i] = coreHz
	}
	return sv.Solve(cores, hz, busHz)
}
