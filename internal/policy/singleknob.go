package policy

// This file implements the two single-knob policies of §3.2 — "MemScale"
// (memory-subsystem DVFS only) and "CPUOnly" (per-core DVFS only). Both
// assume the unmanaged component behaves in the next epoch exactly as in
// the profiling phase. The exact single-knob searches they and the
// Uncoordinated/Semi-coordinated managers are built from live in search.go.

// MemScale is the memory-only DVFS policy (§3.2 alternative 1).
type MemScale struct{ searcher }

// NewMemScale returns the MemScale policy, or the configuration's
// validation error.
func NewMemScale(cfg Config) (*MemScale, error) {
	s, err := newSearcher(cfg)
	if err != nil {
		return nil, err
	}
	return &MemScale{s}, nil
}

// Name implements Policy.
func (p *MemScale) Name() string { return "MemScale" }

// Decide implements Policy: exhaustive search over memory frequencies with
// the cores untouched (they stay at maximum frequency).
func (p *MemScale) Decide(obs Observation) Decision {
	limits := p.begin(obs)
	m := p.memSearch(obs.CoreSteps, p.ev.BaselineTPI(), limits)
	return Decision{CoreSteps: p.keep(obs.CoreSteps), MemStep: m}
}

// CPUOnly is the CPU-only DVFS policy (§3.2 alternative 2).
type CPUOnly struct{ searcher }

// NewCPUOnly returns the CPUOnly policy, or the configuration's validation
// error.
func NewCPUOnly(cfg Config) (*CPUOnly, error) {
	s, err := newSearcher(cfg)
	if err != nil {
		return nil, err
	}
	return &CPUOnly{s}, nil
}

// Name implements Policy.
func (p *CPUOnly) Name() string { return "CPUOnly" }

// Decide implements Policy: the exact all-combinations core search with
// memory pinned at its current frequency; all cores stay at maximum when no
// combination is feasible.
func (p *CPUOnly) Decide(obs Observation) Decision {
	limits := p.begin(obs)
	p.sweep.run(&p.ev, obs.MemStep, obs.MemLatency, p.ev.BaselineTPI(), limits)
	return Decision{CoreSteps: p.sweep.best, MemStep: obs.MemStep}
}
