// Package sim provides the epoch-driven full-system simulator: the OS-level
// control loop of §3 (profile 300 µs → select frequencies → run the 5 ms
// epoch → update slack) running over the synthetic application substrate.
//
// Ground truth comes from the joint performance solver evaluated on the
// *true* trace statistics (phase-exact, including mid-epoch phase changes
// via sub-interval integration), while controllers only ever see
// counter-derived observations from their profiling window — so the
// prediction error that drives the paper's dynamics (oscillation,
// over-correction, local minima) is faithfully present. See DESIGN.md §4.
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"coscale/internal/cache"
	"coscale/internal/counters"
	"coscale/internal/fault"
	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// Config configures one simulation run.
type Config struct {
	Mix    workload.Mix
	Policy policy.Policy // nil runs the no-DVFS baseline (max frequencies)

	CoreLadder *freq.Ladder
	MemLadder  *freq.Ladder
	Mem        memsys.Params
	Power      power.System

	Gamma       float64       // performance bound (0.10 default)
	EpochLen    time.Duration // 5 ms default
	ProfileLen  time.Duration // 300 µs default
	InstrBudget uint64        // instructions per application (100M in the paper)

	Prefetch bool // enable the next-line prefetcher (Fig. 16)
	OoO      bool // 128-instruction MLP window (Fig. 17-18)

	MaxEpochs int // safety cap (default 4000)

	// MigrateEvery rotates the thread→core assignment every N epochs
	// (0 = threads stay pinned). Slack follows each software thread
	// (§3.3); controllers see the mapping via Observation.ThreadIDs.
	MigrateEvery int

	// Faults, when non-nil, injects the given deterministic fault scenario
	// at the substrate/controller boundary: counter readings handed to the
	// policy are perturbed and DVFS decisions pass through a faulty
	// actuation path. Ground truth (instructions, energy, wall time) is
	// never perturbed. nil runs fault-free with zero overhead.
	Faults *fault.Config

	RecordTimeline bool // keep per-epoch records (Fig. 7)

	// OnEpoch, when non-nil, receives one freshly allocated EpochRecord per
	// completed epoch while the run progresses — the hook behind
	// coscale-serve's NDJSON streaming. It runs synchronously on the
	// simulating goroutine, so a slow consumer slows the run but cannot
	// corrupt it, and it never alters results: records are derived from the
	// same state whether or not anyone is listening.
	OnEpoch func(EpochRecord)
}

// withDefaults fills zero fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.CoreLadder == nil {
		c.CoreLadder = freq.DefaultCoreLadder()
	}
	if c.MemLadder == nil {
		c.MemLadder = freq.DefaultMemLadder()
	}
	if c.Mem.Channels == 0 {
		c.Mem = memsys.DefaultParams()
	}
	if c.Power.Core.FNom <= 0 {
		c.Power = power.DefaultSystem(c.Mix.Cores())
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.10
	}
	if c.EpochLen == 0 {
		c.EpochLen = 5 * time.Millisecond
	}
	if c.ProfileLen == 0 {
		c.ProfileLen = 300 * time.Microsecond
	}
	if c.InstrBudget == 0 {
		c.InstrBudget = 100_000_000
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 4000
	}
	return c
}

// PolicyConfig derives the controller-facing configuration from a run
// configuration.
func (c Config) PolicyConfig() policy.Config {
	c = c.withDefaults()
	return policy.Config{
		NCores:     c.Mix.Cores(),
		CoreLadder: c.CoreLadder,
		MemLadder:  c.MemLadder,
		Mem:        c.Mem,
		Power:      c.Power,
		Gamma:      c.Gamma,
		EpochLen:   c.EpochLen,
		// Withhold a per-epoch guard band: a component proportional to
		// the bound (transition dead time and allowance-proportional
		// overspend, which shrink when the controller has less slack to
		// move frequencies with) plus a fixed floor covering
		// model/counter drift and end-of-run truncation, which do not
		// shrink with the bound. Actual transition time is still trued
		// up by the slack accounting after each epoch.
		Reserve: maxFloat(
			(c.Gamma/0.10)*(freq.DefaultCoreTransition.Seconds()+
				freq.MemTransitionTime(c.MemLadder.MinHz()).Seconds()+
				0.004*c.EpochLen.Seconds()),
			0.004*c.EpochLen.Seconds()),
	}
}

// EpochRecord captures one epoch for timeline plots (Fig. 7).
type EpochRecord struct {
	Index     int
	Wall      float64 // simulated seconds at epoch end
	CoreHz    []float64
	MemHz     float64
	Slowdowns []float64 // true per-core slowdown during the epoch vs all-max
	PowerW    float64   // average system power during the epoch
}

// AppResult is one core's outcome.
type AppResult struct {
	Core         int
	App          string
	Instructions uint64  // committed by termination
	FinishTime   float64 // seconds to commit the instruction budget
}

// Energy is the integrated energy breakdown in joules.
type Energy struct {
	CPU, L2, Mem, Rest float64
}

// Total returns total system energy.
func (e Energy) Total() float64 { return e.CPU + e.L2 + e.Mem + e.Rest }

// Result is a completed run.
type Result struct {
	Policy            string
	Mix               string
	Epochs            int
	WallTime          float64 // seconds until the slowest app finished its budget
	Apps              []AppResult
	Energy            Energy
	TotalInstructions uint64
	Timeline          []EpochRecord
}

// EnergyPerInstruction returns joules per committed instruction.
func (r *Result) EnergyPerInstruction() float64 {
	if r.TotalInstructions == 0 {
		return 0
	}
	return r.Energy.Total() / float64(r.TotalInstructions)
}

// Engine runs one configuration.
type Engine struct {
	cfg    Config
	solver *perf.Solver
	llc    *cache.ShareModel
	inj    *fault.Injector // nil when cfg.Faults is nil

	profiles []*trace.AppProfile

	// mutable state
	coreSteps []int
	memStep   int
	perm      []int     // core -> software thread currently scheduled on it
	instr     []float64 // instructions committed per thread
	reported  []float64 // instructions committed before workload termination, per thread
	finish    []float64 // wall time at budget crossing per thread (0 = not yet)
	wall      float64
	ctrs      *counters.System
	energy    Energy
	records   []EpochRecord

	// Steady-state scratch, sized once in New and reused every epoch so
	// the hot path (step and its callees) allocates nothing after warm-up
	// (DESIGN.md §7). Each buffer is fully written before it is read.
	samplers  []trace.Sampler // per software thread, memoizing phase lookups
	st        trueState
	stPerm    []int // perm when st was last computed
	weights   []float64
	fracs     []float64
	shares    []float64
	hz        []float64
	powerOps  []power.CoreOp
	ns        []float64
	dead      []float64
	solveRes  perf.Result
	snapEpoch counters.System
	snapProf  counters.System
	delta     counters.System
	obsDecide policy.Observation
	obsEpoch  policy.Observation

	// solveRes holds the solve of st at solvedSteps/solvedMem when st.gen
	// equals solvedGen; see solve.
	solvedGen   uint64
	solvedSteps []int
	solvedMem   int

	solves, samplings int64
}

// New constructs an engine; the configuration is validated and defaulted.
// Validation errors match ErrInvalidConfig via errors.Is and carry the
// offending field in a *ConfigError.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validateRaw(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	profiles, err := cfg.Mix.Profiles()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	n := cfg.Mix.Cores()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	e := &Engine{
		cfg:       cfg,
		solver:    perf.NewSolver(cfg.Mem),
		llc:       cache.NewShareModel(cache.DefaultSizeMB),
		profiles:  profiles,
		perm:      perm,
		coreSteps: make([]int, n),
		instr:     make([]float64, n),
		reported:  make([]float64, n),
		finish:    make([]float64, n),
		ctrs:      counters.NewSystem(n, cfg.Mem.Channels),
	}
	e.samplers = make([]trace.Sampler, n)
	for th := range e.samplers {
		e.samplers[th].Reset(profiles[th])
	}
	e.stPerm = make([]int, n)
	e.solvedSteps = make([]int, n)
	e.st = trueState{
		stats:     make([]perf.CoreStats, n),
		mix:       make([]trace.InstrMix, n),
		l2PKI:     make([]float64, n),
		demandPKI: make([]float64, n),
		fillPKI:   make([]float64, n),
		wbPKI:     make([]float64, n),
	}
	e.weights = make([]float64, n)
	e.fracs = make([]float64, n)
	e.shares = make([]float64, n)
	e.hz = make([]float64, n)
	e.powerOps = make([]power.CoreOp, n)
	e.ns = make([]float64, n)
	e.dead = make([]float64, n)
	e.solveRes.TPI = make([]float64, n)
	e.solveRes.IPS = make([]float64, n)
	e.snapEpoch = *counters.NewSystem(n, cfg.Mem.Channels)
	e.snapProf = *counters.NewSystem(n, cfg.Mem.Channels)
	e.delta = *counters.NewSystem(n, cfg.Mem.Channels)
	for _, obs := range []*policy.Observation{&e.obsDecide, &e.obsEpoch} {
		obs.CoreSteps = make([]int, n)
		obs.ThreadIDs = make([]int, n)
		obs.Cores = make([]policy.CoreObs, n)
	}
	if cfg.Faults != nil {
		e.inj, err = fault.New(*cfg.Faults, n, cfg.Mem.Channels)
		if err != nil {
			return nil, &ConfigError{Field: "Faults", Reason: err.Error()}
		}
	}
	return e, nil
}

// FaultStats returns the injected-event counts since the last Reset; the
// zero value when the engine runs fault-free.
func (e *Engine) FaultStats() fault.Stats {
	if e.inj == nil {
		return fault.Stats{}
	}
	return e.inj.Stats()
}

// Reset rewinds the engine to its initial state so the same configuration can
// be re-run without reallocating; the scratch buffers warmed by a previous
// run are kept, and results after Reset are bit-identical to a fresh
// engine's. Policies carry their own state across runs — pair Reset with
// SetPolicy(freshPolicy) when re-running a controller-driven configuration.
func (e *Engine) Reset() {
	for i := range e.perm {
		e.perm[i] = i
		e.coreSteps[i] = 0
		e.instr[i] = 0
		e.reported[i] = 0
		e.finish[i] = 0
	}
	for th := range e.samplers {
		e.samplers[th].Reset(e.profiles[th])
	}
	e.memStep = 0
	e.wall = 0
	e.energy = Energy{}
	e.records = nil
	for i := range e.ctrs.Cores {
		e.ctrs.Cores[i] = counters.Core{}
	}
	for i := range e.ctrs.Channels {
		e.ctrs.Channels[i] = counters.Channel{}
	}
	if e.inj != nil {
		e.inj.Reset()
	}
}

// Solves returns how many joint solves the engine has run. A solve whose
// inputs — the true state, the core steps and the memory step — match the
// previous one's is skipped, so this grows by fewer than one per sub-interval
// while applications hold a phase and the settings hold.
func (e *Engine) Solves() int64 { return e.solves }

// Samplings returns how many times the engine has recomputed the true state
// of every core. The state is kept while no thread has moved and every
// thread stays in the phase its last sampling saw.
func (e *Engine) Samplings() int64 { return e.samplings }

// SetPolicy swaps the controller driving the engine. Valid only between
// runs (typically right after Reset); swapping mid-run is unsupported.
func (e *Engine) SetPolicy(p policy.Policy) { e.cfg.Policy = p }

// trueState is the ground-truth characterization of every core at an
// instant, plus derived per-core traffic components.
type trueState struct {
	gen       uint64 // bumped on every recomputation; 0 names no state
	stats     []perf.CoreStats
	mix       []trace.InstrMix
	l2PKI     []float64 // L2 accesses per kilo-instruction
	demandPKI []float64 // post-prefetch demand misses PKI
	fillPKI   []float64 // prefetch fills PKI
	wbPKI     []float64 // writebacks PKI
}

// trueStats samples every application's profile at its current position and
// applies the shared-LLC contention model, prefetcher and MLP settings. The
// returned state points at the engine's scratch buffers and is valid until
// the next trueStats call.
//
// The state is a pure function of each core's (thread, phase): the LLC
// shares follow from the phases' access rates. So when no core's thread
// has changed since the last computation and every thread is still inside
// the phase its sampler memoized, the previous state is returned as is.
// Reset invalidates the samplers, which forces a recomputation.
//
//hot:path
func (e *Engine) trueStats() *trueState {
	n := len(e.profiles)
	st := &e.st
	same := true
	for i := 0; i < n; i++ {
		th := e.perm[i]
		frac := e.instr[th] / float64(e.cfg.InstrBudget)
		frac -= math.Floor(frac) // finished apps keep running, wrapped
		e.fracs[i] = frac
		if th != e.stPerm[i] || !e.samplers[th].Within(frac) {
			same = false
		}
	}
	if same {
		return st
	}
	st.gen++
	e.samplings++
	copy(e.stPerm, e.perm)
	for i := 0; i < n; i++ {
		e.weights[i] = e.samplers[e.perm[i]].At(e.fracs[i]).L2APKI
	}
	e.llc.SharesInto(e.shares, e.weights)
	for i := 0; i < n; i++ {
		th := e.perm[i]
		p := e.profiles[th]
		s := e.samplers[th].At(e.fracs[i])
		mpki := e.samplers[th].MPKI(e.fracs[i], e.shares[i])
		demand, fills := mpki, 0.0
		if e.cfg.Prefetch && p.PrefetchAccuracy > 0 {
			demand = mpki * (1 - p.PrefetchCoverage)
			fills = mpki * p.PrefetchCoverage / p.PrefetchAccuracy
		}
		mlp := 1.0
		if e.cfg.OoO {
			mlp = s.MLP
		}
		wb := mpki * s.DirtyFrac
		st.stats[i] = perf.CoreStats{
			CPIBase:     s.CPIBase,
			Alpha:       s.L2APKI / 1000,
			StallL2:     cache.DefaultHitTime,
			Beta:        demand / 1000,
			MemPerInstr: (demand + fills + wb) / 1000,
			MLP:         mlp,
		}
		st.mix[i] = s.Mix
		st.l2PKI[i] = s.L2APKI
		st.demandPKI[i] = demand
		st.fillPKI[i] = fills
		st.wbPKI[i] = wb
	}
	return st
}

// coreHz fills the engine's frequency scratch from the current ladder steps.
// The returned slice is valid until the next coreHz call.
//
//hot:path
func (e *Engine) coreHz() []float64 {
	e.hz = perf.Resize(e.hz, len(e.coreSteps))
	for i, s := range e.coreSteps {
		e.hz[i] = e.cfg.CoreLadder.Hz(s)
	}
	return e.hz
}

// solve returns the joint steady state of st at the current settings, with
// the core frequencies it used. The solver runs only when st's generation,
// the core steps or the memory step differ from the previous solve's: the
// frequencies are a pure function of the steps under the engine's fixed
// ladders and the solver is a pure function of its inputs, so on a key
// match solveRes already holds the exact result. The returned pointer is
// the engine's scratch, valid until the next solve.
//
//hot:path
func (e *Engine) solve(st *trueState) (*perf.Result, []float64) {
	hz := e.coreHz()
	if st.gen == e.solvedGen && e.memStep == e.solvedMem && slices.Equal(e.coreSteps, e.solvedSteps) {
		return &e.solveRes, hz
	}
	e.solver.SolveInto(&e.solveRes, st.stats, hz, e.cfg.MemLadder.Hz(e.memStep))
	e.solves++
	e.solvedGen, e.solvedMem = st.gen, e.memStep
	copy(e.solvedSteps, e.coreSteps)
	return &e.solveRes, hz
}

// advance integrates dt seconds of execution at the current settings,
// accumulating instructions, counters and energy, and recording budget
// crossings. dead[i] (optional) removes transition dead time from core i's
// execution within this interval.
//
//hot:path
func (e *Engine) advance(dt float64, st *trueState, dead []float64) {
	if dt <= 0 {
		return
	}
	res, hz := e.solve(st)
	busHz := e.cfg.MemLadder.Hz(e.memStep)

	var reads, writes, l2Rate float64
	cores := perf.Grow(e.powerOps, len(hz))
	e.powerOps = cores
	ns := perf.Resize(e.ns, len(hz))
	e.ns = ns
	for i := range hz {
		exec := dt
		if dead != nil && dead[i] > 0 {
			exec -= dead[i]
			if exec < 0 {
				exec = 0
			}
		}
		n := 0.0
		if res.TPI[i] > 0 && !math.IsInf(res.TPI[i], 0) {
			n = exec / res.TPI[i]
		}
		// Budget crossing: interpolate the finish instant (tracked per
		// software thread — threads may migrate across cores).
		th := e.perm[i]
		budget := float64(e.cfg.InstrBudget)
		if e.finish[th] <= 0 && e.instr[th] < budget && e.instr[th]+n >= budget {
			e.finish[th] = e.wall + (budget-e.instr[th])*res.TPI[i]
		}
		e.instr[th] += n
		ns[i] = n

		c := &e.ctrs.Cores[i]
		stats := st.stats[i]
		c.Cycles += uint64(dt * hz[i])
		c.TIC += uint64(n)
		c.TMS += uint64(n * stats.Alpha)
		c.TLA += uint64(n * st.l2PKI[i] / 1000)
		c.TLM += uint64(n * st.demandPKI[i] / 1000)
		c.TLS += uint64(n * stats.Beta)
		c.StallCyclesL2 += uint64(n * stats.Alpha * stats.StallL2 * hz[i])
		c.StallCyclesMem += uint64(n * stats.Beta * res.Mem.Latency / stats.MLP * hz[i])
		c.L2Writebacks += uint64(n * st.wbPKI[i] / 1000)
		c.PrefetchFills += uint64(n * st.fillPKI[i] / 1000)
		mix := st.mix[i]
		c.ALUOps += uint64(n * mix.ALU)
		c.FPUOps += uint64(n * mix.FPU)
		c.Branches += uint64(n * mix.Branch)
		c.LoadStores += uint64(n * mix.LoadStore)

		ips := 0.0
		if exec > 0 {
			ips = n / dt // averaged over the full interval incl. dead time
		}
		reads += ips * (st.demandPKI[i] + st.fillPKI[i]) / 1000
		writes += ips * st.wbPKI[i] / 1000
		l2Rate += ips * st.l2PKI[i] / 1000
		cores[i] = power.CoreOp{
			Volts: e.cfg.CoreLadder.Volts(e.coreSteps[i]),
			Hz:    hz[i],
			IPS:   ips,
			Mix:   mix,
		}
	}

	// Channel counters, spread evenly (bank-interleaved address map).
	totalReqs := (reads + writes) * dt
	busCycles := dt * busHz
	busyFrac := e.busyFrac(res.Mem)
	nchan := float64(e.cfg.Mem.Channels)
	for ci := range e.ctrs.Channels {
		ch := &e.ctrs.Channels[ci]
		ch.BusCycles += uint64(busCycles)
		ch.Reads += uint64((reads * dt) / nchan)
		ch.Writes += uint64((writes * dt) / nchan)
		ch.Prefetches += 0
		ch.BusBusyCycles += uint64(busCycles * res.Mem.UtilBus)
		ch.LatencyCycles += uint64(totalReqs / nchan * res.Mem.Latency * busHz)
		ch.ReadQueueOccupancy += uint64(busCycles * (res.Mem.XiBus - 1))
		ch.BankOccupancy += uint64(busCycles * res.Mem.XiBank)
		ch.RowMisses += uint64((reads + writes) * dt / nchan) // closed page: every access opens a row
		ch.PageOpens += uint64((reads + writes) * dt / nchan)
		ch.PageCloses += uint64((reads + writes) * dt / nchan)
		ch.ActiveCycles += uint64(busCycles * busyFrac)
		ch.IdleCycles += uint64(busCycles * (1 - busyFrac))
	}

	// Energy.
	u := power.MemUsage{
		BusHz:     busHz,
		MCVolts:   e.cfg.MemLadder.Volts(e.memStep),
		ReadRate:  reads,
		WriteRate: writes,
		ActRate:   reads + writes,
		UtilBus:   res.Mem.UtilBus,
		BusyFrac:  busyFrac,
	}
	// Energy integrates only until workload termination (the instant the
	// slowest application commits its budget); any overhang within this
	// chunk is excluded, matching the paper's measurement methodology.
	eDt := dt
	if e.allFinished() {
		last := 0.0
		for _, f := range e.finish {
			if f > last {
				last = f
			}
		}
		if over := (e.wall + dt) - last; over > 0 {
			eDt = dt - over
			if eDt < 0 {
				eDt = 0
			}
		}
	}
	// Reported (measured-window) instructions truncate at the same
	// instant as energy, keeping energy-per-instruction consistent.
	for i, n := range ns {
		e.reported[e.perm[i]] += n * eDt / dt
	}
	split := e.cfg.Power.Total(cores, l2Rate, u)
	e.energy.CPU += split.CPU * eDt
	e.energy.L2 += split.L2 * eDt
	e.energy.Mem += split.Mem * eDt
	e.energy.Rest += split.Rest * eDt

	e.wall += dt
}

// busyFrac estimates the fraction of time DRAM ranks are kept out of
// powerdown: roughly the probability at least one bank in a rank is serving
// a request, approximated from bank utilization with an idle-timeout factor.
func (e *Engine) busyFrac(l memsys.Load) float64 {
	b := l.UtilBank * 8 * 1.5 // 8 banks per rank; 1.5x for the powerdown entry delay
	if b > 1 {
		return 1
	}
	return b
}

// observationInto converts counter deltas over a window at known settings
// into the controller-facing Observation, reusing obs's slices. The result
// is valid until the engine's next observationInto call on the same obs.
//
// It is the one place counters become model inputs (§3.3, Eq. 1): per core,
// α = TMS/TIC (instructions that accessed the L2 and stalled), β = TLS/TIC
// (instructions that missed the L2 and stalled), CPIBase from the cycles
// not stalled on L2 or memory, E[TPI_L2] and the per-miss memory stall from
// the stall-cycle counters, and MLP as the measured memory latency over that
// stall; per memory system, the request rate, the average residency
// latency, bus utilization and the rank-active fraction.
//
//hot:path
func (e *Engine) observationInto(obs *policy.Observation, delta *counters.System, window float64) {
	obs.Window = window
	obs.CoreSteps = perf.Resize(obs.CoreSteps, len(e.coreSteps))
	copy(obs.CoreSteps, e.coreSteps)
	obs.MemStep = e.memStep
	obs.ThreadIDs = perf.Resize(obs.ThreadIDs, len(e.perm))
	copy(obs.ThreadIDs, e.perm)
	obs.Cores = perf.Grow(obs.Cores, len(delta.Cores))
	obs.MemRate = 0
	obs.MemLatency = 0
	obs.UtilBus = 0
	obs.BusyFrac = 0
	busHz := e.cfg.MemLadder.Hz(e.memStep)
	var reads, writes, latencyCycles, busCycles, busBusy, active uint64
	for _, ch := range delta.Channels {
		reads += ch.Reads
		writes += ch.Writes
		latencyCycles += ch.LatencyCycles
		busCycles += ch.BusCycles
		busBusy += ch.BusBusyCycles
		active += ch.ActiveCycles
	}
	if window > 0 {
		obs.MemRate = float64(reads+writes) / window
	}
	if reads+writes > 0 && busHz > 0 {
		obs.MemLatency = float64(latencyCycles) / busHz / float64(reads+writes)
	}
	if busCycles > 0 {
		obs.UtilBus = float64(busBusy) / float64(busCycles)
		obs.BusyFrac = float64(active) / float64(busCycles)
	}

	for i := range delta.Cores {
		c := delta.Cores[i]
		hz := e.cfg.CoreLadder.Hz(e.coreSteps[i])
		co := policy.CoreObs{Instructions: c.TIC}
		if c.TIC > 0 {
			tic := float64(c.TIC)
			stallL2Cyc := float64(c.StallCyclesL2)
			stallMemCyc := float64(c.StallCyclesMem)
			cpuCycles := float64(c.Cycles) - stallL2Cyc - stallMemCyc
			if cpuCycles < 0 {
				cpuCycles = 0
			}
			co.Stats.CPIBase = cpuCycles / tic
			co.Stats.Alpha = float64(c.TMS) / tic
			if c.TMS > 0 {
				co.Stats.StallL2 = stallL2Cyc / hz / float64(c.TMS)
			}
			co.Stats.Beta = float64(c.TLS) / tic
			co.Stats.MemPerInstr = float64(c.TLM+c.PrefetchFills+c.L2Writebacks) / tic
			co.Stats.MLP = 1
			if c.TLS > 0 && obs.MemLatency > 0 {
				stallPerMiss := stallMemCyc / hz / float64(c.TLS)
				if stallPerMiss > 0 {
					mlp := obs.MemLatency / stallPerMiss
					if mlp < 1 {
						mlp = 1
					}
					co.Stats.MLP = mlp
				}
			}
			co.L2PerInstr = float64(c.TLA) / tic
			total := float64(c.ALUOps + c.FPUOps + c.Branches + c.LoadStores)
			if total > 0 {
				co.Mix = trace.InstrMix{
					ALU:       float64(c.ALUOps) / tic,
					FPU:       float64(c.FPUOps) / tic,
					Branch:    float64(c.Branches) / tic,
					LoadStore: float64(c.LoadStores) / tic,
				}
			}
			if window > 0 {
				co.IPS = tic / window
			}
		} else {
			co.Stats = perf.CoreStats{CPIBase: 1, MLP: 1}
		}
		obs.Cores[i] = co
	}
}

// oracleObservationInto builds a perfect observation of the upcoming epoch
// from the true state (for the Offline policy), reusing obs's slices.
//
//hot:path
func (e *Engine) oracleObservationInto(obs *policy.Observation, st *trueState) {
	res, _ := e.solve(st)
	obs.Window = e.cfg.EpochLen.Seconds()
	obs.CoreSteps = perf.Resize(obs.CoreSteps, len(e.coreSteps))
	copy(obs.CoreSteps, e.coreSteps)
	obs.MemStep = e.memStep
	obs.ThreadIDs = perf.Resize(obs.ThreadIDs, len(e.perm))
	copy(obs.ThreadIDs, e.perm)
	obs.Cores = perf.Grow(obs.Cores, len(st.stats))
	obs.MemRate = res.MemRate
	obs.MemLatency = res.Mem.Latency
	obs.UtilBus = res.Mem.UtilBus
	obs.BusyFrac = e.busyFrac(res.Mem)
	for i := range st.stats {
		ips := 0.0
		if res.TPI[i] > 0 {
			ips = 1 / res.TPI[i]
		}
		obs.Cores[i] = policy.CoreObs{
			Instructions: uint64(ips * e.cfg.EpochLen.Seconds()),
			Stats:        st.stats[i],
			L2PerInstr:   st.l2PKI[i] / 1000,
			Mix:          st.mix[i],
			IPS:          ips,
		}
	}
}

// Run executes the workload until every application has committed its
// instruction budget (or MaxEpochs elapse). It is RunContext with a
// background context.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation: the context is checked once per
// epoch, so a long simulation stops within one epoch of ctx being done and
// returns an error wrapping ctx.Err(). A cancelled run leaves the engine in
// a partial state; call Reset before reusing it.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	cfg := e.cfg
	polName := "Baseline"
	var oracle bool
	if cfg.Policy != nil {
		polName = cfg.Policy.Name()
		if op, ok := cfg.Policy.(policy.OraclePolicy); ok {
			oracle = op.WantsOracle()
		}
	}

	epochs := 0
	for ; epochs < cfg.MaxEpochs && !e.allFinished(); epochs++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: %s/%s interrupted after %d epochs: %w", cfg.Mix.Name, polName, epochs, err)
		}
		e.step(epochs, oracle)
	}
	if !e.allFinished() {
		return nil, fmt.Errorf("sim: %s/%s did not finish within %d epochs", cfg.Mix.Name, polName, cfg.MaxEpochs)
	}

	res := &Result{
		Policy:   polName,
		Mix:      cfg.Mix.Name,
		Epochs:   epochs,
		Energy:   e.energy,
		Timeline: e.records,
	}
	var total uint64
	for i := range e.profiles {
		res.Apps = append(res.Apps, AppResult{
			Core:         i,
			App:          e.profiles[i].Name,
			Instructions: uint64(e.reported[i]),
			FinishTime:   e.finish[i],
		})
		total += uint64(e.reported[i])
		if e.finish[i] > res.WallTime {
			res.WallTime = e.finish[i]
		}
	}
	res.TotalInstructions = total
	return res, nil
}

// step runs one epoch of the control loop: profile, decide, integrate,
// observe. It is the per-epoch hot path and must stay allocation-free in
// steady state when timelines are off (asserted by the alloc-budget tests).
//
//hot:path
func (e *Engine) step(epoch int, oracle bool) {
	cfg := &e.cfg
	epochSecs := cfg.EpochLen.Seconds()
	profSecs := cfg.ProfileLen.Seconds()
	n := len(e.perm)

	e.ctrs.SnapshotInto(&e.snapEpoch)
	epochWallStart := e.wall
	epochEnergyStart := e.energy.Total()

	// OS thread migration at quantum boundaries (§3.3): rotate the
	// thread→core assignment; slack follows each thread through the
	// policies' thread-keyed SlackBook.
	var migrateDead float64
	if cfg.MigrateEvery > 0 && epoch > 0 && epoch%cfg.MigrateEvery == 0 {
		last := e.perm[n-1]
		copy(e.perm[1:], e.perm[:n-1])
		e.perm[0] = last
		migrateDead = contextSwitchCost
	}

	var dead []float64
	if cfg.Policy == nil {
		// Baseline: run the whole epoch at maximum frequencies.
		if migrateDead > 0 {
			dead = e.resetDead(n)
			for i := range dead {
				dead[i] = migrateDead
			}
		}
		e.integrate(epochSecs, dead)
	} else {
		// Profiling phase at the settings carried over.
		e.ctrs.SnapshotInto(&e.snapProf)
		st := e.trueStats()
		e.advance(profSecs, st, nil)
		e.ctrs.SubInto(&e.delta, &e.snapProf)

		if oracle {
			e.oracleObservationInto(&e.obsDecide, st)
		} else {
			if e.inj != nil {
				e.inj.PerturbCounters(fault.ProfileWindow, &e.delta)
			}
			e.observationInto(&e.obsDecide, &e.delta, profSecs)
		}
		d := cfg.Policy.Decide(e.obsDecide)
		if e.inj != nil {
			cs, ms := e.inj.Actuate(d.CoreSteps, d.MemStep, e.coreSteps, e.memStep)
			d = policy.Decision{CoreSteps: cs, MemStep: ms}
		}
		dead = e.applyDecision(d, n)
		if migrateDead > 0 {
			if dead == nil {
				dead = e.resetDead(n)
			}
			for i := range dead {
				dead[i] += migrateDead
			}
		}
		e.integrate(epochSecs-profSecs, dead)
	}

	e.ctrs.SubInto(&e.delta, &e.snapEpoch)
	epochWindow := e.wall - epochWallStart
	if cfg.Policy != nil {
		if e.inj != nil {
			e.inj.PerturbCounters(fault.EpochWindow, &e.delta)
		}
		e.observationInto(&e.obsEpoch, &e.delta, epochWindow)
		cfg.Policy.Observe(e.obsEpoch)
	}

	if cfg.RecordTimeline || cfg.OnEpoch != nil {
		rec := e.epochRecord(epoch, epochWindow, e.energy.Total()-epochEnergyStart)
		if cfg.RecordTimeline {
			e.records = append(e.records, rec)
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(rec)
		}
	}
}

// subSteps is how many ground-truth sub-intervals integrate splits each
// epoch segment into.
const subSteps = 4

// integrate advances a segment in subSteps chunks, re-sampling true state
// each chunk so mid-epoch phase changes show up in ground truth.
//
//hot:path
func (e *Engine) integrate(secs float64, dead []float64) {
	chunk := secs / subSteps
	for k := 0; k < subSteps; k++ {
		st := e.trueStats()
		if k == 0 {
			e.advance(chunk, st, dead)
		} else {
			e.advance(chunk, st, nil)
		}
		if e.allFinished() {
			return // workload terminated; the rest of the epoch is unmeasured
		}
	}
}

// resetDead returns the engine's zeroed dead-time scratch at length n.
//
//hot:path
func (e *Engine) resetDead(n int) []float64 {
	e.dead = perf.Resize(e.dead, n)
	return e.dead
}

// applyDecision installs new settings and returns per-core transition dead
// time for the first sub-interval (nil when nothing changed). The returned
// slice is the engine's scratch, valid until the next applyDecision.
//
//hot:path
func (e *Engine) applyDecision(d policy.Decision, n int) []float64 {
	dead := e.resetDead(n)
	anyDead := false
	for i := 0; i < n && i < len(d.CoreSteps); i++ {
		step := e.cfg.CoreLadder.Clamp(d.CoreSteps[i])
		if step != e.coreSteps[i] {
			dead[i] += freq.DefaultCoreTransition.Seconds()
			anyDead = true
			e.coreSteps[i] = step
		}
	}
	memStep := e.cfg.MemLadder.Clamp(d.MemStep)
	if memStep != e.memStep {
		e.memStep = memStep
		// A bus re-lock stalls all memory accesses; approximate by
		// charging every core the transition time.
		t := freq.MemTransitionTime(e.cfg.MemLadder.Hz(memStep)).Seconds()
		for i := range dead {
			dead[i] += t
		}
		anyDead = true
	}
	if !anyDead {
		return nil
	}
	return dead
}

// epochRecord builds a freshly allocated record of the just-completed epoch
// for the timeline (Fig. 7) and the OnEpoch streaming hook.
func (e *Engine) epochRecord(idx int, window float64, energyDelta float64) EpochRecord {
	st := e.trueStats()
	res, hz := e.solve(st)
	maxRes := e.solver.SolveUniform(st.stats, e.cfg.CoreLadder.MaxHz(), e.cfg.MemLadder.MaxHz())
	rec := EpochRecord{
		Index: idx,
		Wall:  e.wall,
		// hz is the engine's scratch; the record keeps its own copy.
		CoreHz: append([]float64(nil), hz...),
		MemHz:  e.cfg.MemLadder.Hz(e.memStep),
		//hot:alloc-ok result escapes: the per-epoch record owns its slices
		Slowdowns: make([]float64, len(hz)),
	}
	for i := range hz {
		if maxRes.TPI[i] > 0 {
			rec.Slowdowns[i] = res.TPI[i] / maxRes.TPI[i]
		}
	}
	if window > 0 {
		rec.PowerW = energyDelta / window
	}
	return rec
}

// contextSwitchCost is the per-core dead time charged when the OS migrates
// threads at a quantum boundary (cold caches and scheduler overhead folded
// into one constant).
const contextSwitchCost = 10e-6

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (e *Engine) allFinished() bool {
	for _, f := range e.finish {
		if f <= 0 {
			return false
		}
	}
	return true
}
