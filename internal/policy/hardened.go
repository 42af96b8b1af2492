package policy

import (
	"fmt"
	"math"

	"coscale/internal/perf"
)

// The Hardened watchdog's tuning; see DESIGN.md §8 for how it was chosen.
const (
	// hardenSanityTol is the allowed relative error in the counter-identity
	// check for the profiling window. The per-core counter stats
	// algebraically reconstruct the cycle counter, so a clean constant-
	// frequency window passes with error near zero; the margin covers the
	// engine's MLP/CPIBase clamps.
	hardenSanityTol = 0.02
	// hardenEpochTolExtra is the additional tolerance for whole-epoch
	// windows: the first profiling fraction of an epoch runs at the
	// previous epoch's frequencies while the observation reports the new
	// ones, which skews the identity by up to profile/epoch × the ladder's
	// max/min frequency ratio.
	hardenEpochTolExtra = 0.12
	// hardenTripAfter is how many consecutive suspicious windows trip the
	// watchdog into failsafe.
	hardenTripAfter = 2
	// hardenBackoffMin and hardenBackoffMax bound the failsafe hold, in
	// epochs. Each trip doubles the next hold up to hardenBackoffMax;
	// sustained clean operation halves it back toward hardenBackoffMin.
	hardenBackoffMin = 4
	hardenBackoffMax = 256
	// hardenReTrustAfter is how many consecutive clean windows halve the
	// backoff.
	hardenReTrustAfter = 8
	// hardenDeficitEpochs sets the persistent-bound-violation trigger: the
	// watchdog trips when any thread falls behind its (1+γ) bound by more
	// than hardenDeficitEpochs × γ × EpochLen seconds of accumulated
	// deficit. Transient model drift is orders of magnitude smaller.
	hardenDeficitEpochs = 4
)

// HardenedStats counts watchdog events, for tests and experiment telemetry.
type HardenedStats struct {
	Trips          int // times the watchdog entered a failsafe hold
	InsaneWindows  int // observations failing the counter-identity check
	Mismatches     int // observations whose settings differ from the last request
	FailsafeEpochs int // epochs spent pinned at maximum frequencies
}

// Hardened wraps an inner controller with a graceful-degradation watchdog
// (DESIGN.md §8). Every observation is checked two ways before the inner
// policy sees it:
//
//   - counter sanity: the per-core stats the engine derives are an exact
//     algebraic factoring of the cycle counter, so the watchdog can
//     reconstruct the expected cycle count (window × frequency) from them;
//     a reading that does not reconstruct — biased, noisy, dropped or stale
//     counters — is implausible and rejected;
//   - actuation echo: the settings reported in effect must equal the last
//     decision this policy returned; a mismatch means the actuator lagged,
//     dropped, froze or clamped the request.
//
// A suspicious window yields one conservative maximum-frequency epoch;
// hardenTripAfter consecutive suspicious windows trip a failsafe hold at
// maximum frequencies for an exponentially backed-off number of epochs
// (hardenBackoffMin → hardenBackoffMax, halved again after sustained clean
// operation).
// Rejected epochs are withheld from the inner policy so faulty readings
// never poison its slack accounting; independently, the watchdog accrues
// each thread's deficit against its (1+γ) bound and trips on persistent
// violation even when individual windows look plausible.
//
// The failsafe rides the same actuation path as any decision, so it cannot
// out-muscle a permanently stuck actuator; what it guarantees is that the
// controller stops *spending slack it cannot verify*.
type Hardened struct {
	cfg   Config
	inner Policy
	stats HardenedStats

	// Echo state: the decision most recently returned to the engine.
	lastReq []int
	lastMem int
	haveReq bool

	badStreak    int
	cleanStreak  int
	backoff      int // next failsafe hold, epochs
	failsafeLeft int // remaining epochs in the current hold

	// deficit accumulates, per software thread, seconds behind the (1+γ)
	// bound (clamped at zero: headroom is not banked against violations).
	deficit []float64

	zeros []int // owned all-max step vector backing failsafe decisions

	// deficitMax solves recordDeficit's per-epoch all-max reference, so
	// the watchdog adds no steady-state allocations to the epoch loop.
	deficitMax allMax
}

// Harden wraps inner with a watchdog. Oracle policies are rejected: their
// decisions are fed ground truth rather than the counters the watchdog
// vets, so hardening them is meaningless.
func Harden(cfg Config, inner Policy) (*Hardened, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, fmt.Errorf("policy: Harden requires an inner policy")
	}
	if op, ok := inner.(OraclePolicy); ok && op.WantsOracle() {
		return nil, fmt.Errorf("policy: cannot harden %s: oracle observations bypass the counters the watchdog checks", inner.Name())
	}
	return &Hardened{
		cfg:     cfg,
		inner:   inner,
		lastReq: make([]int, cfg.NCores),
		backoff: hardenBackoffMin,
		deficit: make([]float64, cfg.NCores),
		zeros:   make([]int, cfg.NCores),
	}, nil
}

// Name identifies the wrapper by its inner policy.
func (h *Hardened) Name() string { return h.inner.Name() + "-Hardened" }

// Inner returns the wrapped policy.
func (h *Hardened) Inner() Policy { return h.inner }

// Stats returns the watchdog event counts so far.
func (h *Hardened) Stats() HardenedStats { return h.stats }

// Decide vets the profiling window and either delegates to the inner policy
// or pins the system at maximum frequencies (see the type comment).
func (h *Hardened) Decide(obs Observation) Decision {
	sane := h.obsSane(obs, hardenSanityTol)
	match := h.actuationMatches(obs)
	h.note(sane, match)

	if h.failsafeLeft > 0 {
		h.failsafeLeft--
		h.stats.FailsafeEpochs++
		return h.remember(h.failsafe(len(obs.Cores)))
	}
	if h.badStreak >= hardenTripAfter {
		h.trip()
		h.failsafeLeft--
		h.stats.FailsafeEpochs++
		return h.remember(h.failsafe(len(obs.Cores)))
	}
	if !sane || !match {
		// An isolated suspicious window: spend one conservative epoch
		// without committing to a hold.
		return h.remember(h.failsafe(len(obs.Cores)))
	}
	return h.remember(h.inner.Decide(obs))
}

// Observe vets the whole-epoch observation; plausible epochs feed the inner
// policy's slack accounting and the watchdog's own bound-deficit tracker,
// implausible ones are withheld entirely.
func (h *Hardened) Observe(epoch Observation) {
	tol := float64(hardenSanityTol) // a variable: the sum rounds in float64, not as an exact constant
	if !h.obsSane(epoch, tol+hardenEpochTolExtra) {
		h.stats.InsaneWindows++
		h.badStreak++
		h.cleanStreak = 0
		return
	}
	h.inner.Observe(epoch)
	h.recordDeficit(epoch)
}

// note updates the trust streaks from one vetted window.
func (h *Hardened) note(sane, match bool) {
	if sane && match {
		h.badStreak = 0
		h.cleanStreak++
		if h.cleanStreak >= hardenReTrustAfter {
			h.cleanStreak = 0
			h.backoff /= 2
			if h.backoff < hardenBackoffMin {
				h.backoff = hardenBackoffMin
			}
		}
		return
	}
	h.badStreak++
	h.cleanStreak = 0
	if !sane {
		h.stats.InsaneWindows++
	}
	if !match {
		h.stats.Mismatches++
	}
}

// trip enters a failsafe hold and doubles the next one (up to
// hardenBackoffMax).
func (h *Hardened) trip() {
	h.stats.Trips++
	h.failsafeLeft = h.backoff
	h.backoff *= 2
	if h.backoff > hardenBackoffMax {
		h.backoff = hardenBackoffMax
	}
	h.badStreak = 0
	for i := range h.deficit {
		h.deficit[i] = 0
	}
}

// failsafe is the maximum-frequency decision (step 0 everywhere). Its slice
// aliases the wrapper's owned scratch, which is never written after
// construction.
func (h *Hardened) failsafe(n int) Decision {
	if n > len(h.zeros) {
		h.zeros = make([]int, n) //hot:alloc-ok capacity miss: grow-only scratch, amortized to zero in steady state
	}
	return Decision{CoreSteps: h.zeros[:n], MemStep: 0}
}

// remember records the decision's settings (clamped as the engine will clamp
// them) so the next observation's settings can be echo-checked against it.
func (h *Hardened) remember(d Decision) Decision {
	h.lastReq = perf.Resize(h.lastReq, len(d.CoreSteps))
	for i, s := range d.CoreSteps {
		h.lastReq[i] = h.cfg.CoreLadder.Clamp(s)
	}
	h.lastMem = h.cfg.MemLadder.Clamp(d.MemStep)
	h.haveReq = true
	return d
}

// actuationMatches reports whether the settings in effect during the window
// equal the last request (vacuously true before the first decision).
func (h *Hardened) actuationMatches(obs Observation) bool {
	if !h.haveReq {
		return true
	}
	if len(obs.CoreSteps) != len(h.lastReq) || obs.MemStep != h.lastMem {
		return false
	}
	for i, s := range obs.CoreSteps {
		if s != h.lastReq[i] {
			return false
		}
	}
	return true
}

// obsSane checks the counter identity: the engine derives CPIBase, Alpha,
// StallL2, Beta and MLP by factoring the cycle counter over the window, so
//
//	TIC·CPIBase + TIC·Alpha·StallL2·hz + TIC·Beta·(MemLatency/MLP)·hz
//
// reconstructs that counter, which in turn must equal window × hz (the
// cycle counter runs for the whole window). Perturbed counters break the
// factoring: a uniform bias survives every per-instruction ratio but scales
// TIC itself; independent noise, dropouts and stale readings skew the
// ratios. A core reporting zero instructions over a nonempty window is
// implausible outright.
func (h *Hardened) obsSane(obs Observation, tol float64) bool {
	if !(obs.Window > 0) || len(obs.CoreSteps) < len(obs.Cores) {
		return false
	}
	if !finiteNonNeg(obs.MemLatency) || !finiteNonNeg(obs.MemRate) {
		return false
	}
	for i := range obs.Cores {
		c := &obs.Cores[i]
		if c.Instructions == 0 {
			return false
		}
		s := c.Stats
		if !finiteNonNeg(s.CPIBase) || !finiteNonNeg(s.Alpha) || !finiteNonNeg(s.Beta) ||
			!finiteNonNeg(s.StallL2) || !finiteNonNeg(s.MemPerInstr) || !(s.MLP >= 1) {
			return false
		}
		hz := h.cfg.CoreLadder.Hz(obs.CoreSteps[i])
		tic := float64(c.Instructions)
		cyclesEst := tic * (s.CPIBase + s.Alpha*s.StallL2*hz + s.Beta*(obs.MemLatency/s.MLP)*hz)
		want := obs.Window * hz
		if cyclesEst < want*(1-tol) || cyclesEst > want*(1+tol) {
			return false
		}
	}
	return true
}

// recordDeficit accrues each thread's shortfall against its (1+γ) bound and
// trips the watchdog on persistent violation. The all-max reference time is
// estimated from the same (vetted) observation the inner policy received:
// Instructions × the all-max TPI (allMax), the one SlackBook.Observe
// credits.
func (h *Hardened) recordDeficit(epoch Observation) {
	base := h.deficitMax.TPI(&h.cfg, epoch)
	threads := epoch.CoreThreads()
	limit := hardenDeficitEpochs * h.cfg.Gamma * h.cfg.EpochLen.Seconds()
	violated := false
	for i, id := range threads {
		if id >= len(h.deficit) {
			//hot:alloc-ok capacity miss: deficit table grows once per new thread id
			grown := make([]float64, id+1)
			copy(grown, h.deficit)
			h.deficit = grown
		}
		tMax := float64(epoch.Cores[i].Instructions) * base[i]
		d := h.deficit[id] + epoch.Window - (1+h.cfg.Gamma)*tMax
		if d < 0 {
			d = 0 // headroom is not banked against future violations
		}
		h.deficit[id] = d
		if d > limit {
			violated = true
		}
	}
	if violated && h.failsafeLeft == 0 {
		h.trip()
	}
}

// finiteNonNeg reports v is a finite, non-negative float.
func finiteNonNeg(v float64) bool {
	return v >= 0 && !math.IsInf(v, 0)
}
