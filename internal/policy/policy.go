// Package policy defines the controller interface shared by CoScale and the
// five comparison policies of §3.2, the counter-derived Observation the OS
// hands a controller each epoch, and the candidate-evaluation machinery
// (joint performance prediction, power prediction, SER) all controllers are
// built from.
//
// The policies themselves live here (MemScale, CPUOnly, Uncoordinated,
// Semi-coordinated, Offline) and in internal/core (CoScale, the paper's
// contribution).
package policy

import (
	"fmt"
	"math"
	"slices"
	"time"

	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/power"
	"coscale/internal/trace"
)

// Config is the static system description every controller shares.
type Config struct {
	NCores     int
	CoreLadder *freq.Ladder
	MemLadder  *freq.Ladder
	Mem        memsys.Params
	Power      power.System

	// Gamma is the allowed per-program slowdown (0.10 = 10%).
	Gamma float64
	// EpochLen is the control period (5 ms in the paper).
	EpochLen time.Duration
	// Reserve is slack withheld each epoch (seconds) to cover the
	// unmodelled DVFS transition dead time, keeping the bound from being
	// grazed by overheads the performance model does not see. Defaults
	// (via sim.Config) to roughly one core plus one memory transition.
	Reserve float64

	// Tables, when set, is a shared per-platform table cache: evaluators
	// fetch their platform-derived columns (ladder Hz/Volts tables,
	// per-step memory queueing models) from it instead of rebuilding them,
	// so sibling controllers over one platform — a sweep job's cells —
	// build those tables once per process. Nil keeps the private
	// per-evaluator build; results are bit-identical either way.
	Tables *TableCache
}

// Limits computes the per-core slowdown limits for the next epoch from
// accumulated slack, after withholding the transition reserve.
func (c Config) Limits(slack []float64) []float64 {
	return c.LimitsInto(nil, slack)
}

// LimitsInto is Limits writing into dst, reusing dst's backing array when
// its capacity suffices (dst may alias slack). The allocation-free form
// used by CoScale's decision hot path (see DESIGN.md §7).
//
//hot:path
func (c Config) LimitsInto(dst, slack []float64) []float64 {
	if cap(dst) < len(slack) {
		dst = make([]float64, len(slack)) //hot:alloc-ok capacity miss: runs once until the caller's scratch is warm
	}
	dst = dst[:len(slack)]
	for i, s := range slack {
		dst[i] = s - c.Reserve
	}
	return MaxSlowdownsInto(dst, dst, c.EpochLen.Seconds(), c.Gamma)
}

// Validate checks the configuration is usable.
func (c Config) Validate() error {
	if c.NCores <= 0 {
		return fmt.Errorf("policy: NCores must be positive")
	}
	if c.CoreLadder == nil || c.MemLadder == nil {
		return fmt.Errorf("policy: ladders must be set")
	}
	if c.Gamma < 0 {
		return fmt.Errorf("policy: negative Gamma")
	}
	if c.EpochLen <= 0 {
		return fmt.Errorf("policy: EpochLen must be positive")
	}
	return nil
}

// CoreObs is one core's counter-derived profile for a window.
type CoreObs struct {
	Instructions uint64
	// Stats are the per-instruction model inputs derived from the
	// counters (CPIBase in cycles; Alpha/Beta fractions; StallL2 in
	// seconds; MemPerInstr in 64 B requests; MLP dimensionless).
	Stats perf.CoreStats
	// L2PerInstr is L2 accesses per instruction (TLA/TIC), for L2 power.
	L2PerInstr float64
	// Mix is the activity-counter instruction breakdown for core power.
	Mix trace.InstrMix
	// IPS is the measured instruction rate over the window.
	IPS float64
}

// Observation is what a controller sees after a profiling window: per-core
// profiles plus memory-subsystem aggregates, all derived from the §3.3
// performance counters, and the settings that were in effect.
//
// The simulation engine reuses an observation's backing slices between
// epochs (DESIGN.md §7): CoreSteps, ThreadIDs and Cores are valid only for
// the duration of the Decide/Observe call. A policy that retains any of
// them must copy (see Clone).
type Observation struct {
	Window    float64 // seconds of wall time profiled
	CoreSteps []int   // settings in effect while profiling
	MemStep   int

	// ThreadIDs identifies the software thread scheduled on each core
	// during the window, for per-thread slack accounting (§3.3). Nil
	// means thread i runs on core i.
	ThreadIDs []int

	Cores []CoreObs

	MemRate    float64 // aggregate memory requests/s observed
	MemLatency float64 // average request latency observed, seconds
	UtilBus    float64 // observed bus utilization
	BusyFrac   float64 // observed fraction of time ranks were busy (not powered down)
}

// Clone returns a deep copy whose slices do not alias the engine's reusable
// observation buffers, for callers that retain observations across epochs.
func (o Observation) Clone() Observation {
	o.CoreSteps = append([]int(nil), o.CoreSteps...)
	o.ThreadIDs = append([]int(nil), o.ThreadIDs...)
	o.Cores = append([]CoreObs(nil), o.Cores...)
	return o
}

// CloneInto deep-copies o into dst, reusing dst's slices, so a steady
// stream of same-shaped observations is retained without allocating. A nil
// slice of o stays nil in dst.
func (o *Observation) CloneInto(dst *Observation) {
	coreSteps, threads, cores := dst.CoreSteps, dst.ThreadIDs, dst.Cores
	*dst = *o
	dst.CoreSteps = copyInto(coreSteps, o.CoreSteps)
	dst.ThreadIDs = copyInto(threads, o.ThreadIDs)
	dst.Cores = copyInto(cores, o.Cores)
}

func copyInto[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// BitEqual reports whether o and b are identical field by field: floats
// compare by Float64bits, so +0 differs from -0 and a NaN field never
// equals anything, and a nil slice differs from an empty one. Every
// decision is a function of the observation's fields, so two BitEqual
// observations lead a deterministic controller to the same bits.
func (o *Observation) BitEqual(b *Observation) bool {
	if !sameBits(o.Window, b.Window) || o.MemStep != b.MemStep ||
		!sameBits(o.MemRate, b.MemRate) || !sameBits(o.MemLatency, b.MemLatency) ||
		!sameBits(o.UtilBus, b.UtilBus) || !sameBits(o.BusyFrac, b.BusyFrac) ||
		!sameInts(o.CoreSteps, b.CoreSteps) || !sameInts(o.ThreadIDs, b.ThreadIDs) ||
		(o.Cores == nil) != (b.Cores == nil) || len(o.Cores) != len(b.Cores) {
		return false
	}
	for i := range o.Cores {
		x, y := &o.Cores[i], &b.Cores[i]
		if x.Instructions != y.Instructions ||
			!sameBits(x.Stats.CPIBase, y.Stats.CPIBase) || !sameBits(x.Stats.Alpha, y.Stats.Alpha) ||
			!sameBits(x.Stats.StallL2, y.Stats.StallL2) || !sameBits(x.Stats.Beta, y.Stats.Beta) ||
			!sameBits(x.Stats.MemPerInstr, y.Stats.MemPerInstr) || !sameBits(x.Stats.MLP, y.Stats.MLP) ||
			!sameBits(x.L2PerInstr, y.L2PerInstr) ||
			!sameBits(x.Mix.ALU, y.Mix.ALU) || !sameBits(x.Mix.FPU, y.Mix.FPU) ||
			!sameBits(x.Mix.Branch, y.Mix.Branch) || !sameBits(x.Mix.LoadStore, y.Mix.LoadStore) ||
			!sameBits(x.IPS, y.IPS) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) && !math.IsNaN(a) }

func sameInts(a, b []int) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

// CoreThreads returns the thread-on-core mapping, defaulting to identity.
func (o Observation) CoreThreads() []int {
	if o.ThreadIDs != nil {
		return o.ThreadIDs
	}
	return identity(len(o.Cores))
}

// Decision is a controller's chosen frequency combination.
type Decision struct {
	CoreSteps []int
	MemStep   int
}

// Clone returns a deep copy of the decision.
func (d Decision) Clone() Decision {
	out := Decision{CoreSteps: make([]int, len(d.CoreSteps)), MemStep: d.MemStep}
	copy(out.CoreSteps, d.CoreSteps)
	return out
}

// Policy is an epoch-granularity DVFS controller.
type Policy interface {
	// Name identifies the policy in results and logs.
	Name() string
	// Decide chooses the next epoch's frequencies from a profiling-window
	// observation.
	Decide(obs Observation) Decision
	// Observe delivers the whole-epoch observation after the epoch runs,
	// for slack accounting.
	Observe(epoch Observation)
}

// OraclePolicy is implemented by policies (Offline) that must be fed the
// true characteristics of the upcoming epoch rather than the profiling
// window.
type OraclePolicy interface {
	Policy
	// WantsOracle reports that Decide expects oracle observations.
	WantsOracle() bool
}

// Evaluator predicts performance, power and SER for candidate frequency
// combinations against a fixed observation, on the memoized per-epoch
// prediction tables of DESIGN.md §10. It is re-pointed at a fresh
// observation once per decision — either rebuilt with NewEvaluator or, on
// hot paths, recycled in place with Reset so its work arrays are reused
// (DESIGN.md §7). The zero value is ready for Reset.
type Evaluator struct {
	Cfg Config

	// Deprecated: UseTables is ignored; every Evaluator evaluates on the
	// memoized tables. It remains only because the load generator's
	// power-capping replica (internal/loadgen/powercap.go) still sets it.
	UseTables bool

	solver     perf.Solver
	stats      []perf.CoreStats
	obs        Observation
	busyPerReq float64 // measured rank-busy time per request, for power prediction

	baseline Eval // all components at maximum frequency

	// Steady-state scratch reused across Evaluate calls.
	solveRes perf.Result
	maxSteps []int

	// Memoized per-epoch prediction tables plus the platform-derived
	// columns they are built over. plat is fetched from Cfg.Tables when
	// set (shared per-platform build) and built privately otherwise;
	// platCore/platMem/platMemP remember the platform it reflects so
	// per-decision Resets skip the rebuild.
	tbl      perf.StepTable
	ptbl     power.CoreTable
	mixes    []trace.InstrMix
	l2pi     []float64 // L2PerInstr per core
	plat     *PlatformTables
	platCore *freq.Ladder
	platMem  *freq.Ladder
	platMemP memsys.Params
}

// Eval is the predicted outcome of one frequency combination.
type Eval struct {
	TPI      []float64 // predicted seconds/instruction per core
	Slowdown []float64 // TPI ratio vs the all-max baseline (>= ~1)
	MaxSlow  float64   // worst per-core slowdown (the Eq. 2 time factor)
	Power    power.Split
	SER      float64
	MemLoad  memsys.Load
}

// NewEvaluator builds an evaluator for obs using the counter-derived
// per-core statistics.
func NewEvaluator(cfg Config, obs Observation) *Evaluator {
	ev := &Evaluator{}
	ev.Reset(cfg, obs)
	return ev
}

// Reset re-points the evaluator at a new observation: it rebuilds the
// per-epoch tables and solves the all-max baseline, reusing every work
// array. A reset evaluator is indistinguishable from a freshly
// constructed one.
//
//hot:path
func (ev *Evaluator) Reset(cfg Config, obs Observation) {
	ev.Cfg = cfg
	// Controller-side predictions need far less precision than ground
	// truth; a looser fixed-point tolerance keeps the §3.1 search cheap.
	ev.solver = perf.Solver{Tol: 1e-6, MaxIter: 25}
	ev.obs = obs
	n := len(obs.Cores)
	ev.stats = perf.Grow(ev.stats, n)
	for i := range obs.Cores {
		ev.stats[i] = obs.Cores[i].Stats
	}
	ev.busyPerReq = 0
	if obs.MemRate > 0 {
		ev.busyPerReq = obs.BusyFrac / obs.MemRate
	}
	ev.maxSteps = perf.Resize(ev.maxSteps, n)
	ev.resetTables()
	// The baseline is its own reference: evaluateInto divides each TPI by
	// itself, so every slowdown, and MaxSlow, comes out exactly 1.
	ev.evaluateInto(&ev.baseline, ev.maxSteps, 0)
	ev.baseline.SER = 1
}

// resetTables re-points the memoized prediction tables at the new epoch:
// the per-core instruction mixes and L2 rates the power path needs, the
// platform-derived ladder/model columns (fetched or rebuilt only when the
// platform changed), and the two per-epoch component tables themselves.
// Backing arrays are reused.
//
//hot:path
func (ev *Evaluator) resetTables() {
	n := len(ev.obs.Cores)
	ev.mixes = perf.Grow(ev.mixes, n)
	ev.l2pi = perf.Grow(ev.l2pi, n)
	for i := range ev.obs.Cores {
		ev.mixes[i] = ev.obs.Cores[i].Mix
		ev.l2pi[i] = ev.obs.Cores[i].L2PerInstr
	}
	ev.ensurePlatform()
	ev.tbl.Reset(ev.stats, ev.plat.CoreHz)
	ev.ptbl.Reset(ev.Cfg.Power.Core, ev.plat.CoreHz, ev.plat.CoreV, ev.mixes)
}

// ensurePlatform points ev.plat at the tables for Cfg's platform, fetching
// from the shared Cfg.Tables cache when one is wired in and building
// privately otherwise. The platform is re-derived only when it actually
// changed (ladder identity plus memory parameters), so the per-decision
// Reset does no ladder work at all in steady state — and shared-cache mode
// does it once per process per platform.
//
//hot:path
func (ev *Evaluator) ensurePlatform() {
	cfg := &ev.Cfg
	if ev.plat != nil && ev.platCore == cfg.CoreLadder && ev.platMem == cfg.MemLadder &&
		ev.platMemP == cfg.Mem {
		return
	}
	if cfg.Tables != nil {
		ev.plat = cfg.Tables.Get(ev.Cfg)
	} else {
		ev.plat = BuildPlatformTables(ev.Cfg)
	}
	ev.platCore, ev.platMem, ev.platMemP = cfg.CoreLadder, cfg.MemLadder, cfg.Mem
}

// Baseline returns the all-max evaluation (the SER denominator).
func (ev *Evaluator) Baseline() Eval { return ev.baseline }

// BaselineTPI returns the all-max baseline's per-core TPI directly, sparing
// hot-path callers the Eval struct copy a Baseline() call would make.
//
//hot:path
func (ev *Evaluator) BaselineTPI() []float64 { return ev.baseline.TPI }

// Evaluate predicts the outcome of running with the given per-core and
// memory steps.
func (ev *Evaluator) Evaluate(coreSteps []int, memStep int) Eval {
	var e Eval
	ev.EvaluateInto(&e, coreSteps, memStep)
	return e
}

// EvaluateBaselineInto copies the all-max evaluation into dst, reusing dst's
// buffers. It is bit-identical to EvaluateInto(dst, ZeroSteps(n), 0) — Reset
// already solved that operating point, every slowdown there is exactly 1
// (IEEE x/x for finite positive x), and SER against the baseline itself is
// exactly 1 — but skips the redundant fixed-point solve. The search hot path
// uses it to seed its "current point" Eval (see DESIGN.md §7).
//
//hot:path
func (ev *Evaluator) EvaluateBaselineInto(dst *Eval) {
	n := len(ev.baseline.TPI)
	dst.TPI = perf.Resize(dst.TPI, n)
	copy(dst.TPI, ev.baseline.TPI)
	dst.Slowdown = perf.Resize(dst.Slowdown, n)
	for i := range dst.Slowdown {
		dst.Slowdown[i] = 1
	}
	dst.MaxSlow = 1
	dst.Power = ev.baseline.Power
	dst.SER = 1
	dst.MemLoad = ev.baseline.MemLoad
}

// EvaluateInto is Evaluate writing into dst, reusing dst's TPI/Slowdown
// buffers. dst must not be the evaluator's own baseline. The search hot path
// calls this with per-controller scratch Evals (see DESIGN.md §7).
//
//hot:path
func (ev *Evaluator) EvaluateInto(dst *Eval, coreSteps []int, memStep int) {
	ev.evaluateInto(dst, coreSteps, memStep)
	dst.SER = power.SER(dst.MaxSlow, dst.Power.Total, ev.baseline.MaxSlow, ev.baseline.Power.Total)
}

// evaluateInto runs the joint model on the memoized tables and fills dst
// with everything but SER. The solver gathers its per-core constants
// incrementally from the StepTable and takes the memory queueing model
// from the platform's ModelCache; the solver's TPI is copied, not aliased,
// since Evals from one decision — current, candidate, baseline — are alive
// simultaneously and must own their buffers. Bit-identity with the direct
// model is argued term by term in DESIGN.md §10 and enforced against the
// test reference by TestTablesBitIdenticalToDirect.
//
//hot:path
func (ev *Evaluator) evaluateInto(dst *Eval, coreSteps []int, memStep int) {
	ev.solver.SolveTable(&ev.solveRes, &ev.tbl, coreSteps, ev.plat.Models.At(memStep))
	n := len(ev.solveRes.TPI)
	dst.TPI = perf.Grow(dst.TPI, n)
	copy(dst.TPI, ev.solveRes.TPI)
	dst.Slowdown = perf.Grow(dst.Slowdown, n)
	dst.MemLoad = ev.solveRes.Mem
	memRate := ev.solveRes.MemRate

	base := ev.baseline.TPI
	sameLen := len(base) == n
	maxSlow := 0.0
	tpi, slow := dst.TPI[:n], dst.Slowdown[:n]
	ips, l2pi := ev.solveRes.IPS[:n], ev.l2pi[:n]
	cpu := 0.0
	l2Rate := 0.0
	// One fused pass: slowdown/max and the power sums accumulate
	// independently, so interleaving them changes no per-accumulator
	// operation order. The per-core power sum reuses the solver's
	// instruction rates (the same 1/TPI-or-zero the direct model derives)
	// and accumulates CoreTable terms in ascending core order, the exact
	// order System.Total sums, before handing the sum to TotalFromCPU.
	for i, s := range coreSteps {
		sl := 1.0
		if sameLen && base[i] > 0 {
			sl = tpi[i] / base[i]
		}
		slow[i] = sl
		if sl > maxSlow {
			maxSlow = sl
		}
		v := ips[i]
		cpu += ev.ptbl.PowerAt(s, i, v)
		l2Rate += v * l2pi[i]
	}
	if maxSlow <= 0 {
		maxSlow = 1
	}
	dst.MaxSlow = maxSlow
	busy := ev.busyPerReq * memRate
	if busy > 1 {
		busy = 1
	}
	// Split traffic into reads and writes in the observed proportion; the
	// energy model treats them symmetrically anyway.
	u := power.MemUsage{
		BusHz:     ev.plat.MemHz[memStep],
		MCVolts:   ev.plat.MemV[memStep],
		ReadRate:  memRate * 0.8,
		WriteRate: memRate * 0.2,
		ActRate:   memRate,
		UtilBus:   dst.MemLoad.UtilBus,
		BusyFrac:  busy,
	}
	dst.Power = ev.Cfg.Power.TotalFromCPU(cpu, l2Rate, u)
}

// Tables exposes the memoized per-epoch prediction tables so callers on the
// marginal-scoring hot path can query them through inlinable methods:
// StepTable.TPIPairAt(i, s, lat) is bit-identical to core i's
// CoreStats.TPI at steps s and s+1, and CoreTable.PowerAt(s, i, ips) to
// Cfg.Power.Core.Power(Volts(s), Hz(s), ips, mix_i) (DESIGN.md §10).
// Valid between a Reset and the next.
func (ev *Evaluator) Tables() (*perf.StepTable, *power.CoreTable) {
	return &ev.tbl, &ev.ptbl
}

// MaxSlowdownsInto converts per-core accumulated slack into the maximum
// per-core slowdown permitted next epoch (§3 performance management), writing
// into dst and reusing its backing array when its capacity suffices (dst may
// alias slacks): core i may run at slowdown r if E ≤ E·(1+γ)/r + slack_i,
// i.e. r ≤ E·(1+γ)/(E − slack_i). A slack at or above the epoch length
// leaves the core unconstrained this epoch (returned as +Inf).
//
//hot:path
func MaxSlowdownsInto(dst, slacks []float64, epoch, gamma float64) []float64 {
	if cap(dst) < len(slacks) {
		dst = make([]float64, len(slacks)) //hot:alloc-ok capacity miss: runs once until the caller's scratch is warm
	}
	dst = dst[:len(slacks)]
	for i, s := range slacks {
		if s >= epoch {
			dst[i] = math.Inf(1)
			continue
		}
		r := epoch * (1 + gamma) / (epoch - s)
		if r < 1 {
			r = 1 // never force above-baseline speed; max frequency is the best we can do
		}
		dst[i] = r
	}
	return dst
}

// WithinBoundScaled is WithinBound against limits whose (1+1e-12) epsilon
// scaling has already been applied (see ScaleLimits) — the hot-path form
// that hoists the per-element multiply out of repeated feasibility checks.
//
//hot:path
func WithinBoundScaled(e Eval, scaled []float64) bool {
	for i, s := range e.Slowdown {
		if s > scaled[i] {
			return false
		}
	}
	return true
}

// ScaleLimits fills dst with limits[i]·(1+1e-12), the epsilon-padded bounds
// WithinBound compares against, so a caller checking many candidates against
// one limit vector multiplies once instead of per check. dst is reused when
// its capacity suffices.
//
//hot:path
func ScaleLimits(dst, limits []float64) []float64 {
	if cap(dst) < len(limits) {
		dst = make([]float64, len(limits)) //hot:alloc-ok capacity miss: runs once until the caller's scratch is warm
	}
	dst = dst[:len(limits)]
	for i, l := range limits {
		dst[i] = l * (1 + 1e-12)
	}
	return dst
}

// WithinBound reports whether an evaluation satisfies every core's slowdown
// limit.
func WithinBound(e Eval, limits []float64) bool {
	for i, s := range e.Slowdown {
		if s > limits[i]*(1+1e-12) {
			return false
		}
	}
	return true
}
