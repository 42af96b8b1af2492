package perf

// Slack implements the paper's program-slack accounting (§3 "Performance
// management"):
//
//	Slack = T_MaxFreq·(1+γ) − T_Actual
//
// accumulated epoch by epoch. A controller may slow a program down in the
// next epoch only as far as the accumulated slack plus the new epoch's
// allowance permits.
type Slack struct {
	// Gamma is the maximum allowed slowdown (e.g. 0.10 for 10%).
	Gamma float64

	accumulated float64 // seconds of remaining headroom
}

// NewSlack returns a tracker for the given performance bound.
func NewSlack(gamma float64) *Slack {
	return &Slack{Gamma: gamma}
}

// Record accounts one epoch: tMaxEpoch is the (estimated) duration this
// epoch's work would have taken at maximum frequencies; tActualEpoch is the
// wall-clock duration it actually took.
func (s *Slack) Record(tMaxEpoch, tActualEpoch float64) {
	s.accumulated += tMaxEpoch*(1+s.Gamma) - tActualEpoch
}

// Available returns the accumulated slack in seconds (negative when the
// program is behind its bound).
func (s *Slack) Available() float64 { return s.accumulated }

// Reset clears all accumulated state, keeping the bound. Used when a
// program context-switches (the paper keeps slack per software thread).
func (s *Slack) Reset() { s.accumulated = 0 }
