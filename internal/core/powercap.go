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
	walk     CapWalk   // the shared capped walk, reset per decision
	limits   []float64 // per-core slack, then slowdown limits in place
	scaled   []float64 // limits with the WithinBound epsilon applied
	identity []int     // thread mapping fallback when ThreadIDs is nil
	best     []int     // the decision's step vector
	watts    float64   // the decision's predicted total power
	slow     float64   // the decision's predicted worst slowdown
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
	// The walk evaluates on the memoized-table path: with Cfg.Tables wired
	// in, sibling nodes of a capped fleet share one platform-column build
	// per process.
	return &PowerCap{
		cfg:   cfg,
		capW:  capWatts,
		slack: policy.NewSlackBook(cfg.NCores, cfg.Gamma, cfg.Reserve),
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
	// Performance limits still apply when Gamma > 0: a cap should shed
	// watts, not starve one program beyond its SLO if avoidable.
	p.limits = p.slack.AvailableInto(p.limits, threadsFor(&p.identity, obs))
	p.limits = p.cfg.LimitsInto(p.limits, p.limits)
	p.scaled = policy.ScaleLimits(p.scaled, p.limits)
	w := &p.walk
	w.Reset(p.cfg, obs, p.scaled)

	// Feasibility pre-check at the ladder floor: an infeasible cap clamps
	// at once instead of walking every configuration to find the floor.
	p.best = perf.Resize(p.best, p.cfg.NCores)
	for i := range p.best {
		p.best[i] = p.cfg.CoreLadder.Steps() - 1
	}
	minMem := p.cfg.MemLadder.Steps() - 1
	p.watts, p.slow = w.Evaluate(p.best, minMem)
	if p.watts > p.capW {
		return policy.Decision{CoreSteps: p.best, MemStep: minMem},
			fmt.Errorf("%w: cap %g W below minimum achievable %g W", ErrCapInfeasible, p.capW, p.watts)
	}

	// Walk down from all-max until the cap is met. Until a point fits, the
	// decision tracks the lowest-power point visited as a fallback.
	steps, bestMem := w.Point()
	copy(p.best, steps)
	curPower, curSlow := w.Predicted()
	p.watts, p.slow = curPower, curSlow
	bestSlow := math.Inf(1)
	found := curPower <= p.capW
	if found {
		bestSlow = curSlow
	}
	for curPower > p.capW && w.Step() {
		curPower, curSlow = w.Predicted()
		switch {
		case curPower <= p.capW && curSlow < bestSlow:
			bestSlow, found = curSlow, true
		case !found && curPower < p.watts: // a new lowest-power fallback
		default:
			continue
		}
		steps, bestMem = w.Point()
		copy(p.best, steps)
		p.watts, p.slow = curPower, curSlow
	}
	return policy.Decision{CoreSteps: p.best, MemStep: bestMem}, nil
}

// Predicted returns the predicted total power and worst per-core slowdown
// of the decision the last DecideCapped call returned — the walk's own
// evaluation of that point, for the infeasible clamp too.
func (p *PowerCap) Predicted() (watts, maxSlow float64) { return p.watts, p.slow }
