package dram

import (
	"fmt"
)

// Request is one 64 B memory transaction (an LLC miss fill, writeback or
// prefetch fill).
type Request struct {
	Addr     uint64
	Write    bool
	Prefetch bool // prefetcher-initiated fill (no core is stalled on it)
	Core     int  // originating core, for per-core accounting

	arrival int64
}

// Completion reports a finished request.
type Completion struct {
	Req     Request
	Latency int64 // bus cycles from enqueue to data transfer completion
}

// Location is a decoded physical address.
type Location struct {
	Channel, Rank, Bank int
	Row                 uint64
}

// Memory is the full multi-channel memory system. It is driven in bus-cycle
// ticks; all channels share one clock.
type Memory struct {
	cfg Config
	tm  timing
	now int64

	channels []*channel
}

// New builds a memory system.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{cfg: cfg, tm: cfg.timingAt(cfg.BusHz)}
	for c := 0; c < cfg.Channels; c++ {
		m.channels = append(m.channels, newChannel(&m.cfg, &m.tm))
	}
	return m, nil
}

// Now returns the current cycle.
func (m *Memory) Now() int64 { return m.now }

// BusHz returns the current bus frequency.
func (m *Memory) BusHz() float64 { return m.cfg.BusHz }

// Map decodes a block address into its channel/rank/bank/row under the
// bank-interleaved (block-granularity) mapping that maximizes channel and
// bank parallelism for the single-issue streams this system serves.
func (m *Memory) Map(addr uint64) Location {
	block := addr / uint64(m.cfg.BlockBytes)
	ch := int(block % uint64(m.cfg.Channels))
	block /= uint64(m.cfg.Channels)
	bank := int(block % uint64(m.cfg.BanksPerRank))
	block /= uint64(m.cfg.BanksPerRank)
	rank := int(block % uint64(m.cfg.RanksPerChannel()))
	block /= uint64(m.cfg.RanksPerChannel())
	blocksPerRow := uint64(m.cfg.RowBytes / m.cfg.BlockBytes)
	return Location{Channel: ch, Rank: rank, Bank: bank, Row: block / blocksPerRow}
}

// Enqueue admits a request; it reports false when the target queue is full
// (back-pressure the caller must retry).
func (m *Memory) Enqueue(r Request) bool {
	loc := m.Map(r.Addr)
	r.arrival = m.now
	return m.channels[loc.Channel].enqueue(r, loc)
}

// Tick advances n bus cycles and returns the requests completed during them.
func (m *Memory) Tick(n int) []Completion {
	var done []Completion
	for i := 0; i < n; i++ {
		for _, ch := range m.channels {
			ch.step(m.now, &done)
		}
		m.now++
	}
	return done
}

// Drain ticks until every queue and in-flight request completes, returning
// completions and the cycles consumed. It fails if no progress is possible.
func (m *Memory) Drain() ([]Completion, int64, error) {
	var done []Completion
	start := m.now
	for !m.Idle() {
		before := m.pending()
		d := m.Tick(1024)
		done = append(done, d...)
		if m.pending() == before && len(d) == 0 && m.now-start > 1<<24 {
			return done, m.now - start, fmt.Errorf("dram: drain stalled with %d pending", before)
		}
	}
	return done, m.now - start, nil
}

// Idle reports whether all queues are empty and all banks quiescent.
func (m *Memory) Idle() bool {
	for _, ch := range m.channels {
		if !ch.idle(m.now) {
			return false
		}
	}
	return true
}

func (m *Memory) pending() int {
	n := 0
	for _, ch := range m.channels {
		n += len(ch.readQ) + len(ch.writeQ)
	}
	return n
}

// SetFrequency drains the memory system, switches the bus frequency and
// returns the transition stall in *new* bus cycles (the DLL re-lock penalty
// the paper charges: 512 cycles + 28 ns). The caller should advance its
// clock by that stall with memory accesses halted.
func (m *Memory) SetFrequency(hz float64) (penalty int64, err error) {
	if hz <= 0 {
		return 0, fmt.Errorf("dram: non-positive frequency")
	}
	if _, _, err := m.Drain(); err != nil {
		return 0, err
	}
	m.cfg.BusHz = hz
	m.tm = m.cfg.timingAt(hz)
	for _, ch := range m.channels {
		ch.retime(m.now)
	}
	return 512 + cyc(28, hz), nil
}

// Stats aggregates channel statistics.
func (m *Memory) Stats() Stats {
	var s Stats
	for _, ch := range m.channels {
		s.add(&ch.stats)
	}
	s.Cycles = m.now
	return s
}

// Energy returns the accumulated energy in joules under the Micron IDD
// methodology, summed over all ranks, plus the wall time simulated.
func (m *Memory) Energy() (joules float64, seconds float64) {
	for _, ch := range m.channels {
		joules += ch.energy(&m.cfg)
	}
	return joules, float64(m.now) / m.cfg.BusHz
}

// Stats are the per-channel counters the MemScale/CoScale models read.
type Stats struct {
	Cycles        int64
	Reads, Writes int64
	LatencySum    int64 // Σ completion latency, bus cycles
	BusBusy       int64 // cycles the data bus carried data
	QueueOcc      int64 // Σ queued requests per cycle
	BankOcc       int64 // Σ busy banks per cycle
	ActiveCycles  int64 // Σ rank-cycles with an open row
	PowerdownCyc  int64 // Σ rank-cycles in precharge powerdown
	Activates     int64
	Refreshes     int64
	RetiredWrites int64
	RowHits       int64 // open-page row-buffer hits (0 under closed-page)
	RowMisses     int64 // accesses that required an activate
}

func (s *Stats) add(o *Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.LatencySum += o.LatencySum
	s.BusBusy += o.BusBusy
	s.QueueOcc += o.QueueOcc
	s.BankOcc += o.BankOcc
	s.ActiveCycles += o.ActiveCycles
	s.PowerdownCyc += o.PowerdownCyc
	s.Activates += o.Activates
	s.Refreshes += o.Refreshes
	s.RetiredWrites += o.RetiredWrites
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// AvgReadLatency returns mean read latency in bus cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Reads)
}

// BusUtilization returns the data-bus busy fraction of aggregated Stats,
// averaged over channels.
func (s Stats) BusUtilization(channels int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BusBusy) / float64(s.Cycles) / float64(channels)
}
