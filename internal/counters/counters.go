// Package counters defines the hardware performance counters CoScale reads
// during each epoch's profiling phase (§3.3 "Performance counters").
//
// Per core, CoScale needs five instruction counters (TIC, TMS, TLA, TLM,
// TLS) and four Core Activity Counters (committed ALU, FPU, branch and
// load/store instructions) for the power model. Per memory channel it reuses
// MemScale's seven queuing/row-buffer counters plus two power counters
// (active-vs-idle cycles and page open/close events).
//
// Counters are free-running uint64s. A profiling window is expressed as the
// difference of two snapshots (Sample = end - start), mirroring how an OS
// driver reads MSR-style counters. The package holds only the counters and
// their deltas; the ratios the models read (α, β, CPI, MLP, the queueing
// statistics) are derived in one place, sim.Engine.observationInto.
package counters

import "coscale/internal/perf"

// Core holds the free-running per-core counters.
type Core struct {
	Cycles uint64 // core clock cycles elapsed (at the core's own frequency)
	TIC    uint64 // Total Instructions Committed
	TMS    uint64 // Total L1 Miss Stall cycles source events: instructions that accessed L2 and stalled
	TLA    uint64 // Total L2 Accesses
	TLM    uint64 // Total L2 Misses
	TLS    uint64 // Total L2 Miss Stalls: instructions that missed L2 and stalled the pipeline

	// Core Activity Counters (CAC) for the power model: committed
	// instruction counts by class.
	ALUOps     uint64
	FPUOps     uint64
	Branches   uint64
	LoadStores uint64

	// StallCyclesL2 and StallCyclesMem accumulate the cycles the pipeline
	// spent stalled on L2 hits and L2 misses respectively. They let the
	// model derive E[TPI_L2] and E[TPI_Mem] directly.
	StallCyclesL2  uint64
	StallCyclesMem uint64

	// L2Writebacks counts dirty evictions attributable to this core's
	// misses; PrefetchFills counts prefetcher-initiated memory requests on
	// this core's behalf. Both feed the per-core traffic estimate.
	L2Writebacks  uint64
	PrefetchFills uint64
}

// Sub returns the counter deltas c - start. All fields must be monotonically
// non-decreasing between the two snapshots.
func (c Core) Sub(start Core) Core {
	return Core{
		Cycles:         c.Cycles - start.Cycles,
		TIC:            c.TIC - start.TIC,
		TMS:            c.TMS - start.TMS,
		TLA:            c.TLA - start.TLA,
		TLM:            c.TLM - start.TLM,
		TLS:            c.TLS - start.TLS,
		ALUOps:         c.ALUOps - start.ALUOps,
		FPUOps:         c.FPUOps - start.FPUOps,
		Branches:       c.Branches - start.Branches,
		LoadStores:     c.LoadStores - start.LoadStores,
		StallCyclesL2:  c.StallCyclesL2 - start.StallCyclesL2,
		StallCyclesMem: c.StallCyclesMem - start.StallCyclesMem,
		L2Writebacks:   c.L2Writebacks - start.L2Writebacks,
		PrefetchFills:  c.PrefetchFills - start.PrefetchFills,
	}
}

// Channel holds the free-running per-memory-channel counters: MemScale's
// seven queuing/row-buffer statistics and the two counters used by the
// memory power model.
type Channel struct {
	BusCycles uint64 // memory bus clock cycles elapsed

	Reads      uint64 // read (cache-miss) requests serviced
	Writes     uint64 // writeback requests serviced
	Prefetches uint64 // prefetch fills serviced (counted within Reads as traffic)

	// Queueing statistics: occupancy integrals (sum over cycles of queue
	// length) from which average waiters-per-request are derived.
	ReadQueueOccupancy uint64 // Σ read-queue length, per bus cycle
	BankOccupancy      uint64 // Σ requests holding or waiting for banks, per bus cycle
	BusBusyCycles      uint64 // cycles the data bus transferred data
	LatencyCycles      uint64 // Σ per-request residency (arrival to data return), bus cycles

	// Row-buffer behaviour (closed-page policy keeps these equal to the
	// access count, but the counters exist for open-page configurations).
	RowHits   uint64
	RowMisses uint64

	// Power-model counters.
	ActiveCycles uint64 // cycles with at least one bank active
	IdleCycles   uint64 // cycles with all banks precharged/idle
	PageOpens    uint64 // ACT commands issued
	PageCloses   uint64 // PRE (or auto-precharge) events
}

// Sub returns the counter deltas c - start.
func (c Channel) Sub(start Channel) Channel {
	return Channel{
		BusCycles:          c.BusCycles - start.BusCycles,
		Reads:              c.Reads - start.Reads,
		Writes:             c.Writes - start.Writes,
		Prefetches:         c.Prefetches - start.Prefetches,
		ReadQueueOccupancy: c.ReadQueueOccupancy - start.ReadQueueOccupancy,
		BankOccupancy:      c.BankOccupancy - start.BankOccupancy,
		BusBusyCycles:      c.BusBusyCycles - start.BusBusyCycles,
		LatencyCycles:      c.LatencyCycles - start.LatencyCycles,
		RowHits:            c.RowHits - start.RowHits,
		RowMisses:          c.RowMisses - start.RowMisses,
		ActiveCycles:       c.ActiveCycles - start.ActiveCycles,
		IdleCycles:         c.IdleCycles - start.IdleCycles,
		PageOpens:          c.PageOpens - start.PageOpens,
		PageCloses:         c.PageCloses - start.PageCloses,
	}
}

// System bundles a full snapshot: one Core set per core and one Channel set
// per memory channel.
type System struct {
	Cores    []Core
	Channels []Channel
}

// NewSystem allocates zeroed counters for nCores cores and nChannels memory
// channels.
func NewSystem(nCores, nChannels int) *System {
	return &System{
		Cores:    make([]Core, nCores),
		Channels: make([]Channel, nChannels),
	}
}

// SnapshotInto deep-copies the current counter state into dst, reusing
// dst's slices when their capacities suffice, so the per-epoch hot path
// allocates nothing (see DESIGN.md §7).
//
//hot:path
func (s *System) SnapshotInto(dst *System) {
	dst.Cores = perf.Grow(dst.Cores, len(s.Cores))
	dst.Channels = perf.Grow(dst.Channels, len(s.Channels))
	copy(dst.Cores, s.Cores)
	copy(dst.Channels, s.Channels)
}

// SubInto writes the element-wise deltas s - start into dst, reusing dst's
// slices. The two snapshots must have identical shapes.
//
//hot:path
func (s *System) SubInto(dst *System, start *System) {
	dst.Cores = perf.Grow(dst.Cores, len(s.Cores))
	dst.Channels = perf.Grow(dst.Channels, len(s.Channels))
	for i := range s.Cores {
		dst.Cores[i] = s.Cores[i].Sub(start.Cores[i])
	}
	for i := range s.Channels {
		dst.Channels[i] = s.Channels[i].Sub(start.Channels[i])
	}
}
