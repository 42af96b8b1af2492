package core

import (
	"errors"
	"fmt"
	"math"

	"coscale/internal/perf"
	"coscale/internal/policy"
)

// ErrCapInfeasible reports a power budget below the platform's minimum
// achievable power: even with every core and the memory bus at their lowest
// frequency the predicted power exceeds the cap. The decision returned
// alongside it is the all-minimum-frequency clamp — the closest physically
// reachable point — so callers can actuate it while surfacing the violation.
var ErrCapInfeasible = errors.New("core: power cap infeasible")

// PowerCap is the §2.3 extension the paper sketches: "CoScale can be readily
// extended to cap power with appropriate changes to its decision algorithm".
// Instead of minimizing SER within a performance bound, PowerCap maximizes
// performance subject to a full-system power budget (and still honours the
// per-program slack bound when one is configured).
//
// The decision algorithm reuses the Figure 2 walk: starting from maximum
// frequencies, it greedily takes the moves with the best marginal utility
// (Δpower/Δperformance — the cheapest watts in performance terms) until the
// predicted power fits under the cap. An infeasible cap — below the power of
// the all-minimum configuration — is detected up front: the controller clamps
// to all-minimum frequencies and DecideCapped surfaces ErrCapInfeasible
// instead of walking the whole ladder just to rediscover the floor.
type PowerCap struct {
	cfg   policy.Config
	capW  float64
	slack *policy.SlackBook

	// Decision-time scratch, reused every call so DecideCapped allocates
	// nothing in steady state (DESIGN.md §7). The Decision it returns
	// aliases best and is valid until the next call, as for CoScale.Decide.
	ev       policy.Evaluator // memoized-table path, reset per decision
	eval     policy.Eval      // candidate prediction scratch
	limits   []float64        // per-core slack, then slowdown limits in place
	scaled   []float64        // limits with the WithinBound epsilon applied
	identity []int            // thread mapping fallback when ThreadIDs is nil
	steps    []int            // the walk's current step vector
	best     []int            // best step vector found by the walk
	cands    []capCand        // the current move's candidates, evaluated once
}

// capCand is one single-step-down candidate move, evaluated exactly once
// per move: what the walk reads of its prediction plus its utility against
// the current point and whether it keeps every core inside its limit.
type capCand struct {
	core   int // core stepped down; -1 is the memory move
	power  float64
	slow   float64
	u      float64
	within bool
}

// NewPowerCap builds a power-capping controller with the given full-system
// budget in watts, or an error for an invalid configuration or budget.
func NewPowerCap(cfg policy.Config, capWatts float64) (*PowerCap, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if capWatts <= 0 || math.IsNaN(capWatts) {
		return nil, fmt.Errorf("core: power cap %g W must be positive", capWatts)
	}
	// The evaluator runs on the memoized-table path (bit-identical to the
	// direct path, DESIGN.md §10): with Cfg.Tables wired in, sibling nodes
	// of a capped fleet share one platform-column build per process.
	return &PowerCap{
		cfg:   cfg,
		capW:  capWatts,
		slack: policy.NewSlackBook(cfg.NCores, cfg.Gamma, cfg.Reserve),
		ev:    policy.Evaluator{UseTables: true},
	}, nil
}

// Name implements policy.Policy.
func (p *PowerCap) Name() string { return "CoScale-PowerCap" }

// Cap returns the configured budget in watts.
func (p *PowerCap) Cap() float64 { return p.capW }

// SetCap replaces the budget for subsequent decisions. This is the epoch
// rebalancing hook (internal/fastcap): one PowerCap per node persists across
// epochs while its assigned slice of the global budget moves.
func (p *PowerCap) SetCap(capWatts float64) error {
	if capWatts <= 0 || math.IsNaN(capWatts) {
		return fmt.Errorf("core: power cap %g W must be positive", capWatts)
	}
	p.capW = capWatts
	return nil
}

// Observe implements policy.Policy.
func (p *PowerCap) Observe(epoch policy.Observation) {
	tMax := policy.TMaxForEpoch(p.cfg, epoch, policy.ZeroSteps(p.cfg.NCores), 0)
	p.slack.RecordEpochFor(epoch.CoreThreads(), tMax, epoch.Window)
}

// Decide implements policy.Policy: descend until the cap is met, preferring
// the moves that buy the most watts per unit of performance; among
// cap-satisfying configurations choose the fastest (lowest worst slowdown).
// Infeasibility is swallowed — the all-minimum clamp is still the right
// actuation — so use DecideCapped when the violation itself matters. The
// returned Decision aliases the controller's scratch and is valid until the
// next call; retain with Clone.
func (p *PowerCap) Decide(obs policy.Observation) policy.Decision {
	d, _ := p.DecideCapped(obs)
	return d
}

// DecideCapped is Decide surfacing infeasibility: when the cap lies below the
// platform's minimum achievable power for this observation, the returned
// decision is the all-minimum-frequency configuration and the error wraps
// ErrCapInfeasible (carrying the cap and the floor). A feasible cap returns
// a nil error. The returned CoreSteps alias the controller's scratch and are
// valid until the next call; retain with Clone.
//
//hot:path
func (p *PowerCap) DecideCapped(obs policy.Observation) (policy.Decision, error) {
	ev := &p.ev
	ev.Reset(p.cfg, obs)
	n := p.cfg.NCores
	p.best = perf.ResizeInts(p.best, n)

	// Feasibility pre-check at the ladder floor. Below it the old walk
	// thrashed through every intermediate configuration only to fall back;
	// now the clamp is immediate and typed.
	for i := range p.best {
		p.best[i] = p.cfg.CoreLadder.Steps() - 1
	}
	minMem := p.cfg.MemLadder.Steps() - 1
	ev.EvaluateInto(&p.eval, p.best, minMem)
	if floor := p.eval.Power.Total; floor > p.capW {
		return policy.Decision{CoreSteps: p.best, MemStep: minMem},
			fmt.Errorf("%w: cap %g W below minimum achievable %g W", ErrCapInfeasible, p.capW, floor)
	}

	// Performance limits still apply when Gamma > 0: a cap should shed
	// watts, not starve one program beyond its SLO if avoidable.
	p.limits = p.slack.AvailableInto(p.limits, threadsFor(&p.identity, obs))
	p.limits = p.cfg.LimitsInto(p.limits, p.limits)
	p.scaled = policy.ScaleLimits(p.scaled, p.limits)

	// The walk reads only the current point's total power and worst
	// slowdown; it starts at the all-max baseline Reset already solved.
	p.steps = perf.ResizeInts(p.steps, n)
	memStep := 0
	base := ev.Baseline()
	curPower, curSlow := base.Power.Total, base.MaxSlow

	copy(p.best, p.steps)
	bestMem := memStep
	bestSlow := math.Inf(1)
	bestPower := curPower
	found := curPower <= p.capW
	if found {
		bestSlow = curSlow
	}

	maxIters := p.cfg.MemLadder.Steps() + p.cfg.CoreLadder.Steps()*n
	for iter := 0; iter < maxIters && curPower > p.capW; iter++ {
		k := p.bestMove(memStep, curPower, curSlow)
		if k < 0 {
			break
		}
		c := p.cands[k]
		if c.core < 0 {
			memStep++
		} else {
			p.steps[c.core]++
		}
		curPower, curSlow = c.power, c.slow
		under := curPower <= p.capW
		switch {
		case under && curSlow < bestSlow:
			bestSlow = curSlow
			copy(p.best, p.steps)
			bestMem = memStep
			found = true
		case !found && curPower < bestPower:
			// Track the lowest-power configuration as a fallback.
			bestPower = curPower
			copy(p.best, p.steps)
			bestMem = memStep
		}
	}
	return policy.Decision{CoreSteps: p.best, MemStep: bestMem}, nil
}

// bestMove evaluates one memory step down and one step down for each core
// — each candidate exactly once, by stepping one entry of the walk's step
// vector down and back — and returns the index in p.cands of the move that
// sheds the most power per unit slowdown, or -1 when every ladder is at its
// bottom. Moves within the slack bound are preferred; when none is
// available the choice falls back to every candidate, because capping
// takes precedence over the SLO. Candidate order is fixed (memory first,
// then cores ascending) and the first of equal utilities wins.
//
//hot:path
func (p *PowerCap) bestMove(memStep int, curPower, curSlow float64) int {
	p.cands = p.cands[:0]
	if !p.cfg.MemLadder.Bottom(memStep) {
		p.score(-1, memStep+1, curPower, curSlow)
	}
	for i, s := range p.steps {
		if p.cfg.CoreLadder.Bottom(s) {
			continue
		}
		p.steps[i]++
		p.score(i, memStep, curPower, curSlow)
		p.steps[i]--
	}
	if k := p.pick(true); k >= 0 {
		return k
	}
	return p.pick(false)
}

// score evaluates p.steps at memory step mem and records the candidate.
//
//hot:path
func (p *PowerCap) score(core, mem int, curPower, curSlow float64) {
	p.ev.EvaluateInto(&p.eval, p.steps, mem)
	p.cands = append(p.cands, capCand{
		core:   core,
		power:  p.eval.Power.Total,
		slow:   p.eval.MaxSlow,
		u:      Utility(curPower-p.eval.Power.Total, p.eval.MaxSlow-curSlow),
		within: policy.WithinBoundScaled(p.eval, p.scaled),
	})
}

// pick returns the index of the highest-utility candidate (within the
// slack bound only, when withinOnly is set), or -1 if there is none.
//
//hot:path
func (p *PowerCap) pick(withinOnly bool) int {
	best, bestU := -1, math.Inf(-1)
	for k, c := range p.cands {
		if withinOnly && !c.within {
			continue
		}
		if c.u > bestU {
			best, bestU = k, c.u
		}
	}
	return best
}
