// Package memsys provides the analytic memory-system performance model used
// both as the fast backend's ground truth and as the controllers' online
// model (the paper's E[TPI_Mem] = ξbank·(S_Bank + ξbus·S_Bus) decomposition,
// §3.3). It models the paper's memory subsystem: 4 DDR3 channels, each with
// two dual-rank DIMMs (32 banks per channel), closed-page row-buffer
// management and bank interleaving.
//
// The DRAM core timings (tRCD, tCL, tRP) are fixed in nanoseconds — they are
// properties of the DRAM array, not the interface clock — while the data
// burst and memory-controller pipeline scale with the bus/MC frequency.
// Queueing delays follow M/M/1-style response-time inflation on bank and
// bus utilization, which is what gives memory DVFS its characteristic
// behaviour: cheap at low traffic, increasingly expensive as the bus
// saturates.
package memsys

import "math"

// Params describes the memory subsystem geometry and timing (Table 2).
type Params struct {
	Channels        int     // independent DDR3 channels
	BanksPerChannel int     // banks across all ranks on a channel
	TRCDNs          float64 // row-to-column delay, ns
	TCLNs           float64 // CAS latency, ns
	TRPNs           float64 // row precharge, ns
	BurstCycles     float64 // bus cycles per 64 B transfer (BL8 on DDR = 4)
	MCCycles        float64 // controller pipeline cycles, at the MC clock (2x bus)

	// MaxUtil caps modelled utilization: a higher offered load is clamped
	// to it (latency stops rising), which keeps fixed-point solvers stable.
	MaxUtil float64
}

// DefaultParams returns the Table 2 memory configuration.
func DefaultParams() Params {
	return Params{
		Channels:        4,
		BanksPerChannel: 32, // 2 DIMMs x 2 ranks x 8 banks
		TRCDNs:          15,
		TCLNs:           15,
		TRPNs:           15,
		BurstCycles:     4,
		MCCycles:        6,
		MaxUtil:         0.97,
	}
}

// SBus returns the data-burst (transfer) time in seconds at bus frequency
// busHz.
func (p Params) SBus(busHz float64) float64 {
	return p.BurstCycles / busHz
}

// SBank returns the unloaded bank access time in seconds at bus frequency
// busHz: activate + CAS (fixed DRAM-core nanoseconds) plus the controller
// pipeline at the MC clock (double the bus clock).
func (p Params) SBank(busHz float64) float64 {
	return (p.TRCDNs+p.TCLNs)*1e-9 + p.MCCycles/(2*busHz)
}

// BankOccupancy returns the time one request occupies a bank under
// closed-page management: activate, CAS, transfer, precharge.
func (p Params) BankOccupancy(busHz float64) float64 {
	return (p.TRCDNs+p.TCLNs+p.TRPNs)*1e-9 + p.SBus(busHz)
}

// Load is the modelled state of the memory system at one operating point.
type Load struct {
	Latency  float64 // average seconds from request arrival to data return
	XiBus    float64 // bus response inflation (>= 1); paper's ξ_bus
	XiBank   float64 // bank response inflation (>= 1); paper's ξ_bank
	UtilBus  float64 // data-bus utilization in [0, ~1)
	UtilBank float64 // average per-bank utilization
}

// Evaluate models the memory system at bus frequency busHz with an aggregate
// request arrival rate of reqPerSec (reads + writebacks + prefetch fills
// across all channels). Requests interleave evenly across channels and
// banks.
func (p Params) Evaluate(busHz, reqPerSec float64) Load {
	return p.ModelAt(busHz).Evaluate(reqPerSec)
}

// LoadModel is Params with the bus-frequency-dependent service times
// precomputed, for callers that evaluate many request rates at one busHz
// (the solver's fixed-point loop). Evaluate performs the same arithmetic on
// the same values as Params.Evaluate, so results are bit-identical.
type LoadModel struct {
	invalid  bool // busHz <= 0
	channels float64
	banks    float64
	maxUtil  float64
	sBus     float64
	sBank    float64
	bankOcc  float64
}

// ModelAt precomputes the service-time constants at one bus frequency.
func (p Params) ModelAt(busHz float64) LoadModel {
	if busHz <= 0 {
		return LoadModel{invalid: true}
	}
	return LoadModel{
		channels: float64(p.Channels),
		banks:    float64(p.BanksPerChannel),
		maxUtil:  p.MaxUtil,
		sBus:     p.SBus(busHz),
		sBank:    p.SBank(busHz),
		bankOcc:  p.BankOccupancy(busHz),
	}
}

// Evaluate computes the queueing state at an aggregate request rate.
//
//hot:path
func (m LoadModel) Evaluate(reqPerSec float64) Load {
	if m.invalid {
		return Load{Latency: math.Inf(1), XiBus: 1, XiBank: 1}
	}
	perChan := reqPerSec / m.channels

	uBus := clampUtil(perChan*m.sBus, m.maxUtil)
	uBank := clampUtil(perChan*m.bankOcc/m.banks, m.maxUtil)

	xiBus := 1 / (1 - uBus)
	xiBank := 1 / (1 - uBank)

	return Load{
		Latency:  xiBank * (m.sBank + xiBus*m.sBus),
		XiBus:    xiBus,
		XiBank:   xiBank,
		UtilBus:  uBus,
		UtilBank: uBank,
	}
}

// PeakBandwidth returns the request service capacity (64 B requests per
// second) of the whole memory system at bus frequency busHz, limited by the
// data bus.
func (p Params) PeakBandwidth(busHz float64) float64 {
	return float64(p.Channels) * busHz / p.BurstCycles
}

func clampUtil(u, max float64) float64 {
	if u < 0 {
		return 0
	}
	if u > max {
		return max
	}
	return u
}

// ModelCache memoizes ModelAt over a ladder of candidate bus frequencies, so
// per-epoch search paths can evaluate many operating points without
// re-deriving the per-frequency service-time constants. ModelAt is a pure
// function of (Params, busHz), so a cached model is bit-identical to a fresh
// one. Reset builds every step's model and At only reads, so a cache that
// has been Reset is safe to share across goroutines (the per-platform table
// cache does). The backing array is reused across Resets.
type ModelCache struct {
	models []LoadModel
}

// Reset re-points the cache at memory parameters p and the candidate bus
// frequencies hz (index = ladder step) and builds the model for every step.
//
//hot:path
func (c *ModelCache) Reset(p Params, hz []float64) {
	steps := len(hz)
	if cap(c.models) < steps {
		c.models = make([]LoadModel, steps) //hot:alloc-ok capacity miss: runs once until the ladder-sized scratch is warm
	}
	c.models = c.models[:steps]
	for s, f := range hz {
		c.models[s] = p.ModelAt(f)
	}
}

// At returns the model for ladder step s.
//
//hot:path
func (c *ModelCache) At(s int) LoadModel { return c.models[s] }
