package policy

// DirectEvaluator exposes the direct reference model to the package's
// external tests.
type DirectEvaluator = directEvaluator

// NewDirectEvaluator returns the direct reference model for obs.
func NewDirectEvaluator(cfg Config, obs Observation) *DirectEvaluator {
	return newDirectEvaluator(cfg, obs)
}

// RefOfflineStats exposes refOfflineStats to the package's external tests.
type RefOfflineStats = refOfflineStats

// RefOfflineDecide runs refOffline on the observation p has just decided
// on, with the limits p's decision used (its slack is unchanged until the
// next Observe), adding its counts to st.
func RefOfflineDecide(p *Offline, obs Observation, st *RefOfflineStats) Decision {
	return refOffline(p.cfg, obs, p.slack.Limits(obs), st)
}

// SlackOf returns the slack book of a slack-keeping comparison policy, or
// nil for any other policy.
func SlackOf(p Policy) *SlackBook {
	switch p := p.(type) {
	case *MemScale:
		return p.slack
	case *CPUOnly:
		return p.slack
	case *SemiCoordinated:
		return p.slack
	case *Offline:
		return p.slack
	}
	return nil
}

// HardenedDeficit returns the watchdog's per-thread deficit table.
func HardenedDeficit(h *Hardened) []float64 { return h.deficit }
