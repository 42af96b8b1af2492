package policy

import "coscale/internal/perf"

// Offline is the idealized upper bound of §3.2 (alternative 5): it is fed a
// perfect trace of each upcoming epoch (the engine passes oracle
// observations instead of profiling-window ones) and searches all core and
// memory frequency settings. The nominally exponential M·C^N space is
// searched exactly by exploiting the model's per-core separability: for
// each memory frequency, sweeping the worst-allowed slowdown over every
// per-core step boundary enumerates every Pareto-relevant combination (see
// DESIGN.md §4); a short fixed-point on the shared memory latency accounts
// for the traffic coupling. Offline remains epoch-by-epoch greedy, so it is
// an upper bound for CoScale, not a true oracle.
type Offline struct {
	searcher
	memBest, first []int // bestForMem's winner and its first round's sweep winner
	stats          OfflineStats
}

// OfflineStats counts the work Offline's exact trims skip (DESIGN.md §4).
type OfflineStats struct {
	Sweeps     int
	Infeasible int // sweeps that found no feasible vector
	Repeats    int // second rounds that repeated the first's vector, skipping its verification
}

// NewOffline returns the Offline policy, or the configuration's validation
// error.
func NewOffline(cfg Config) (*Offline, error) {
	s, err := newSearcher(cfg)
	if err != nil {
		return nil, err
	}
	return &Offline{searcher: s}, nil
}

// Name implements Policy.
func (p *Offline) Name() string { return "Offline" }

// Stats returns the counts since construction or the last Reset.
func (p *Offline) Stats() OfflineStats { return p.stats }

// Reset returns the policy to its freshly constructed state.
func (p *Offline) Reset() { p.slack.Reset(); p.stats = OfflineStats{} }

// WantsOracle implements OraclePolicy.
func (p *Offline) WantsOracle() bool { return true }

// Decide implements Policy. obs must be an oracle observation of the
// upcoming epoch.
func (p *Offline) Decide(obs Observation) Decision {
	limits := p.begin(obs)
	p.steps = perf.Resize(p.steps, p.cfg.NCores)
	best := Decision{CoreSteps: p.steps}
	bestSER := p.ev.baseline.SER
	for m := 0; m < p.cfg.MemLadder.Steps(); m++ {
		if ser, ok := p.bestForMem(m, limits); ok && ser < bestSER {
			bestSER, best.MemStep = ser, m
			copy(best.CoreSteps, p.memBest)
		}
	}
	return best
}

// bestForMem finds the best core assignment for one memory step, leaving
// it in memBest and returning its SER. It iterates the shared-latency fixed
// point twice and verifies each sweep's winner with the full joint model,
// skipping what cannot change the result (DESIGN.md §4).
func (p *Offline) bestForMem(m int, limits []float64) (float64, bool) {
	latency := p.ev.baseline.MemLoad.Latency // step 0's all-max point
	if m > 0 {
		p.ev.EvaluateInto(&p.e, p.ev.maxSteps, m)
		latency = p.e.MemLoad.Latency
	}
	bestSER, found := 0.0, false
	for round := 0; round < 2; round++ {
		p.stats.Sweeps++
		if !p.sweep.run(&p.ev, m, latency, p.ev.BaselineTPI(), limits) {
			p.stats.Infeasible++
			break
		}
		if round == 1 && sameInts(p.sweep.best, p.first) { // its verification repeats round 1's
			p.stats.Repeats++
			break
		}
		p.first = append(p.first[:0], p.sweep.best...)
		p.ev.EvaluateInto(&p.e, p.sweep.best, m) // joint verification
		// Retry at the latency the joint model predicts; when the
		// fixed-latency estimate was optimistic the winner is discarded.
		latency = p.e.MemLoad.Latency
		if !WithinBound(p.e, limits) {
			continue
		}
		if !found || p.e.SER < bestSER {
			bestSER, found = p.e.SER, true
			p.memBest = append(p.memBest[:0], p.sweep.best...)
		}
	}
	return bestSER, found
}
