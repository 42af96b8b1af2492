package fault

import (
	"coscale/internal/counters"
	"coscale/internal/trace"
)

// Window identifies which controller-facing counter reading is being
// perturbed; staleness is tracked independently per window kind so a stale
// profiling read repeats the previous profiling read, not the previous
// whole-epoch read.
type Window int

// The two counter windows the engine derives observations from.
const (
	ProfileWindow Window = iota // the 300 µs pre-decision profiling window
	EpochWindow                 // the whole-epoch window driving slack accounting
)

const numWindows = 2

// Stats counts injected events, for tests and experiment telemetry.
type Stats struct {
	StaleWindows  int // counter readings replaced by the previous reading
	DroppedCores  int // per-core counter blocks zeroed
	DroppedChans  int // per-channel counter blocks zeroed
	DroppedReqs   int // actuation requests silently ignored
	StuckEvents   int // actuator freeze events started
	ThermalEvents int // thermal-throttle events started
}

// Injector applies one fault scenario to a running simulation. All state —
// the PRNG, stale-reading buffers, the lagged-request ring, scratch step
// vectors — is preallocated in New, so the perturbation methods allocate
// nothing and the engine's per-epoch hot path stays allocation-free with
// injection enabled (DESIGN.md §7, §8).
//
// An Injector is owned by a single engine and is not safe for concurrent
// use.
type Injector struct {
	cfg Config
	rng trace.Rand

	stats Stats

	// Stale-reading state: the last reading the "sensor" reported for each
	// window kind (post-perturbation, so a stale repeat returns exactly
	// what the controller saw before).
	prev    [numWindows]counters.System
	hasPrev [numWindows]bool

	// Lagged-request ring: the last LagEpochs requested step vectors.
	lag     []laggedRequest
	lagFill int
	lagHead int

	stuckLeft   int
	thermalLeft int

	// outCore is the scratch the effective (post-fault) core steps are
	// assembled in; Actuate's return value aliases it.
	outCore []int
}

// laggedRequest is one in-flight actuation request.
type laggedRequest struct {
	coreSteps []int
	memStep   int
}

// New builds an injector for the given scenario and system shape.
func New(cfg Config, nCores, nChannels int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nCores <= 0 || nChannels <= 0 {
		return nil, &ConfigError{Field: "(shape)", Reason: "nCores and nChannels must be positive"}
	}
	inj := &Injector{
		cfg:     cfg,
		outCore: make([]int, nCores),
	}
	for w := range inj.prev {
		inj.prev[w] = *counters.NewSystem(nCores, nChannels)
	}
	if n := cfg.Actuation.LagEpochs; n > 0 {
		inj.lag = make([]laggedRequest, n)
		for i := range inj.lag {
			inj.lag[i].coreSteps = make([]int, nCores)
		}
	}
	inj.Reset()
	return inj, nil
}

// Reset rewinds the injector to its initial state (PRNG back to the seed,
// no stale readings, empty request ring, no active events), so a rerun after
// Engine.Reset replays the identical fault sequence.
func (inj *Injector) Reset() {
	inj.rng = *trace.NewRand(inj.cfg.Seed)
	inj.stats = Stats{}
	for w := range inj.hasPrev {
		inj.hasPrev[w] = false
	}
	inj.lagFill = 0
	inj.lagHead = 0
	inj.stuckLeft = 0
	inj.thermalLeft = 0
}

// Stats returns the injected-event counts since the last Reset.
func (inj *Injector) Stats() Stats { return inj.stats }

// factor draws one multiplicative perturbation factor, clamped non-negative
// (counters cannot go backwards).
//
//hot:path
func (inj *Injector) factor() float64 {
	f := 1 + inj.cfg.Counters.Bias
	if n := inj.cfg.Counters.Noise; n > 0 {
		f *= 1 + n*(2*inj.rng.Float64()-1)
	}
	if f < 0 {
		f = 0
	}
	return f
}

// scale applies a multiplicative factor to one counter value.
func scale(v uint64, f float64) uint64 {
	//lint:ignore floateq exact passthrough gate: an unperturbed factor is the literal 1, and rounding through float64 would corrupt large counters
	if f == 1 {
		return v
	}
	return uint64(float64(v) * f)
}

// PerturbCounters perturbs one window's counter deltas in place: staleness
// first (a stale window repeats the previous perturbed reading verbatim),
// then per-field multiplicative bias/noise, per-block dropout, and the
// power-counter bias. The engine calls it on the delta handed to
// observationInto, never on its ground-truth accumulators.
//
//hot:path
func (inj *Injector) PerturbCounters(w Window, sys *counters.System) {
	c := &inj.cfg.Counters
	if c.StaleProb > 0 && inj.hasPrev[w] && inj.rng.Float64() < c.StaleProb {
		inj.stats.StaleWindows++
		inj.prev[w].SnapshotInto(sys)
		return
	}
	//lint:ignore floateq exact enabled-check: a disabled fault is the literal zero value, not "approximately zero"
	if c.Bias != 0 || c.Noise > 0 {
		for i := range sys.Cores {
			inj.perturbCore(&sys.Cores[i])
		}
		for i := range sys.Channels {
			inj.perturbChannel(&sys.Channels[i])
		}
	}
	if c.DropProb > 0 {
		for i := range sys.Cores {
			if inj.rng.Float64() < c.DropProb {
				inj.stats.DroppedCores++
				sys.Cores[i] = counters.Core{}
			}
		}
		for i := range sys.Channels {
			if inj.rng.Float64() < c.DropProb {
				inj.stats.DroppedChans++
				sys.Channels[i] = counters.Channel{}
			}
		}
	}
	//lint:ignore floateq exact enabled-check: a disabled fault is the literal zero value, not "approximately zero"
	if b := inj.cfg.PowerBias; b != 0 {
		f := 1 + b
		for i := range sys.Cores {
			co := &sys.Cores[i]
			co.ALUOps = scale(co.ALUOps, f)
			co.FPUOps = scale(co.FPUOps, f)
			co.Branches = scale(co.Branches, f)
			co.LoadStores = scale(co.LoadStores, f)
		}
		for i := range sys.Channels {
			ch := &sys.Channels[i]
			ch.ActiveCycles = scale(ch.ActiveCycles, f)
			ch.IdleCycles = scale(ch.IdleCycles, f)
		}
	}
	if c.StaleProb > 0 {
		sys.SnapshotInto(&inj.prev[w])
		inj.hasPrev[w] = true
	}
}

// perturbCore scales every field of one core's counter block by an
// independently drawn factor.
//
//hot:path
func (inj *Injector) perturbCore(c *counters.Core) {
	c.Cycles = scale(c.Cycles, inj.factor())
	c.TIC = scale(c.TIC, inj.factor())
	c.TMS = scale(c.TMS, inj.factor())
	c.TLA = scale(c.TLA, inj.factor())
	c.TLM = scale(c.TLM, inj.factor())
	c.TLS = scale(c.TLS, inj.factor())
	c.ALUOps = scale(c.ALUOps, inj.factor())
	c.FPUOps = scale(c.FPUOps, inj.factor())
	c.Branches = scale(c.Branches, inj.factor())
	c.LoadStores = scale(c.LoadStores, inj.factor())
	c.StallCyclesL2 = scale(c.StallCyclesL2, inj.factor())
	c.StallCyclesMem = scale(c.StallCyclesMem, inj.factor())
	c.L2Writebacks = scale(c.L2Writebacks, inj.factor())
	c.PrefetchFills = scale(c.PrefetchFills, inj.factor())
}

// perturbChannel scales every field of one channel's counter block by an
// independently drawn factor.
//
//hot:path
func (inj *Injector) perturbChannel(c *counters.Channel) {
	c.BusCycles = scale(c.BusCycles, inj.factor())
	c.Reads = scale(c.Reads, inj.factor())
	c.Writes = scale(c.Writes, inj.factor())
	c.Prefetches = scale(c.Prefetches, inj.factor())
	c.ReadQueueOccupancy = scale(c.ReadQueueOccupancy, inj.factor())
	c.BankOccupancy = scale(c.BankOccupancy, inj.factor())
	c.BusBusyCycles = scale(c.BusBusyCycles, inj.factor())
	c.LatencyCycles = scale(c.LatencyCycles, inj.factor())
	c.RowHits = scale(c.RowHits, inj.factor())
	c.RowMisses = scale(c.RowMisses, inj.factor())
	c.ActiveCycles = scale(c.ActiveCycles, inj.factor())
	c.IdleCycles = scale(c.IdleCycles, inj.factor())
	c.PageOpens = scale(c.PageOpens, inj.factor())
	c.PageCloses = scale(c.PageCloses, inj.factor())
}

// Actuate maps the controller's requested steps to the steps the faulty
// actuator actually installs this epoch, given the settings currently in
// effect. Faults compose in pipeline order: the request enters the lag ring
// (a slow regulator), the delivered request may be dropped, a stuck actuator
// freezes everything, and an active thermal event clamps core frequency from
// above. The returned core-step slice aliases the injector's scratch and is
// valid until the next Actuate call.
//
//hot:path
func (inj *Injector) Actuate(reqCore []int, reqMem int, curCore []int, curMem int) ([]int, int) {
	a := &inj.cfg.Actuation
	outCore := inj.outCore[:len(curCore)]
	// Cores a short request leaves uncovered keep their current settings.
	copy(outCore, curCore)
	copy(outCore, reqCore)
	outMem := reqMem

	if a.LagEpochs > 0 {
		slot := &inj.lag[inj.lagHead]
		warm := inj.lagFill >= len(inj.lag)
		// Swap the fresh request (sitting in the scratch) into the ring
		// slot; the slot's previous contents — the request from LagEpochs
		// ago — become the scratch, i.e. the delivered request.
		deliveredMem := slot.memStep
		inj.outCore, slot.coreSteps = slot.coreSteps, inj.outCore
		slot.memStep = outMem
		outCore = inj.outCore[:len(curCore)]
		if warm {
			outMem = deliveredMem
		} else {
			// Ring still warming up: nothing has been delivered yet, so
			// the settings stay as they are.
			copy(outCore, curCore)
			outMem = curMem
			inj.lagFill++
		}
		inj.lagHead++
		if inj.lagHead == len(inj.lag) {
			inj.lagHead = 0
		}
	}

	if a.DropProb > 0 && inj.rng.Float64() < a.DropProb {
		inj.stats.DroppedReqs++
		copy(outCore, curCore)
		outMem = curMem
	}

	if a.StuckProb > 0 {
		if inj.stuckLeft == 0 && inj.rng.Float64() < a.StuckProb {
			inj.stats.StuckEvents++
			inj.stuckLeft = a.StuckEpochs
		}
		if inj.stuckLeft > 0 {
			inj.stuckLeft--
			copy(outCore, curCore)
			outMem = curMem
		}
	}

	if a.ThermalProb > 0 {
		if inj.thermalLeft == 0 && inj.rng.Float64() < a.ThermalProb {
			inj.stats.ThermalEvents++
			inj.thermalLeft = a.ThermalEpochs
		}
		if inj.thermalLeft > 0 {
			inj.thermalLeft--
			for i := range outCore {
				if outCore[i] < a.ThermalMinCoreStep {
					outCore[i] = a.ThermalMinCoreStep
				}
			}
		}
	}

	return outCore, outMem
}
