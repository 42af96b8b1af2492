package policy

import "coscale/internal/perf"

// Uncoordinated applies both MemScale-style memory DVFS and CPUOnly-style
// core DVFS through two fully independent managers (§3.2 alternative 3).
//
// Each manager believes it alone influences the slack: in determining its
// budget, the CPU manager assumes the memory subsystem will stay at its
// previous-epoch frequency AND that no CPI degradation has accumulated (its
// reference is "cores at max, memory as-is", refreshed every epoch with no
// carry-over); the memory manager makes the mirror-image assumptions. Both
// then consume an entire γ allowance, so the combined slowdown can approach
// 2γ — the bound violations Figure 9 shows.
type Uncoordinated struct {
	searcher
	limits []float64 // the fixed 1+γ limit of every core
}

// NewUncoordinated returns the uncoordinated two-manager policy, or the
// configuration's validation error.
func NewUncoordinated(cfg Config) (*Uncoordinated, error) {
	s, err := newSearcher(cfg)
	if err != nil {
		return nil, err
	}
	return &Uncoordinated{searcher: s}, nil
}

// Name implements Policy.
func (p *Uncoordinated) Name() string { return "Uncoordinated" }

// Decide implements Policy.
func (p *Uncoordinated) Decide(obs Observation) Decision {
	p.ev.Reset(p.cfg, obs)
	// Both managers get a fresh per-epoch allowance of γ per core.
	p.limits = perf.Grow(p.limits, p.cfg.NCores)
	for i := range p.limits {
		p.limits[i] = 1 + p.cfg.Gamma
	}

	// CPU manager: reference is cores-at-max with memory at its current
	// frequency.
	p.ev.EvaluateInto(&p.ref, p.ev.maxSteps, obs.MemStep)
	p.sweep.run(&p.ev, obs.MemStep, p.ref.MemLoad.Latency, p.ref.TPI, p.limits)

	// Memory manager: reference is memory-at-max with cores at their
	// current frequencies.
	p.ev.EvaluateInto(&p.ref, obs.CoreSteps, 0)
	memStep := p.memSearch(obs.CoreSteps, p.ref.TPI, p.limits)

	// Both managers' decisions take effect simultaneously.
	return Decision{CoreSteps: p.sweep.best, MemStep: memStep}
}

// Observe implements Policy: the managers deliberately keep no cross-epoch
// slack state ("assumes it has accumulated no CPI degradation").
func (p *Uncoordinated) Observe(Observation) {}
