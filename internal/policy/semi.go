package policy

// SemiCoordinated increases coordination slightly over Uncoordinated (§3.2
// alternative 4): the CPU and memory managers share one slack estimate —
// each is aware of the past CPI degradation produced by the other, so the
// performance bound holds — but each still tries to consume the entire
// remaining slack independently every epoch. Because neither accounts for
// the other's simultaneous move, the pair over-corrects in both directions,
// producing the oscillations and local minima of Figures 1, 4 and 7(c).
type SemiCoordinated struct {
	searcher

	// OutOfPhase makes the managers act on alternate epochs (the §4.2.2
	// half-epoch phase-shift variant: less oscillation, earlier local
	// minima).
	OutOfPhase bool

	epoch int
}

// NewSemiCoordinated returns the semi-coordinated policy, or the
// configuration's validation error.
func NewSemiCoordinated(cfg Config) (*SemiCoordinated, error) {
	s, err := newSearcher(cfg)
	if err != nil {
		return nil, err
	}
	return &SemiCoordinated{searcher: s}, nil
}

// Name implements Policy.
func (p *SemiCoordinated) Name() string {
	if p.OutOfPhase {
		return "Semi-coordinated-OoP"
	}
	return "Semi-coordinated"
}

// Decide implements Policy.
func (p *SemiCoordinated) Decide(obs Observation) Decision {
	p.epoch++
	limits := p.begin(obs)
	base := p.ev.BaselineTPI()

	// Both managers measure degradation against the shared all-max
	// reference (that is the coordination), but each plans as if the
	// other component keeps its current frequency. Out of phase, the
	// memory manager sits odd epochs out and the CPU manager even ones.
	cpuTurn, memTurn := true, true
	if p.OutOfPhase {
		cpuTurn = p.epoch%2 == 1
		memTurn = !cpuTurn
	}
	d := Decision{CoreSteps: p.keep(obs.CoreSteps), MemStep: obs.MemStep}
	if cpuTurn {
		p.sweep.run(&p.ev, obs.MemStep, obs.MemLatency, base, limits)
		d.CoreSteps = p.sweep.best
	}
	if memTurn {
		d.MemStep = p.memSearch(obs.CoreSteps, base, limits)
	}
	return d
}
