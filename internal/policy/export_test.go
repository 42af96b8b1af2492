package policy

// RefOfflineStats exposes refOfflineStats to the package's external tests.
type RefOfflineStats = refOfflineStats

// RefOfflineDecide runs refOffline on the observation p has just decided
// on, with the limits p's decision used, adding its counts to st.
func RefOfflineDecide(p *Offline, obs Observation, st *RefOfflineStats) Decision {
	return refOffline(p.cfg, obs, p.limits, st)
}
