package policy

import (
	"math"
	"testing"

	"coscale/internal/perf"
	"coscale/internal/trace"
)

// stubPolicy is a scriptable inner policy recording what the watchdog lets
// through.
type stubPolicy struct {
	decision Decision
	decides  int
	observes int
}

func (s *stubPolicy) Name() string                    { return "Stub" }
func (s *stubPolicy) Decide(obs Observation) Decision { s.decides++; return s.decision }
func (s *stubPolicy) Observe(epoch Observation)       { s.observes++ }

// hardObs builds an observation that satisfies the watchdog's counter
// identity exactly: uniform cores at one ladder point, instruction counts
// derived from the solved TPI so the reconstructed cycle count equals
// window × hz.
func hardObs(cfg Config, stats perf.CoreStats, window float64, coreStep, memStep int) Observation {
	sv := perf.NewSolver(cfg.Mem)
	all := make([]perf.CoreStats, cfg.NCores)
	for i := range all {
		all[i] = stats
	}
	res := sv.SolveUniform(all, cfg.CoreLadder.Hz(coreStep), cfg.MemLadder.Hz(memStep))
	steps := make([]int, cfg.NCores)
	for i := range steps {
		steps[i] = coreStep
	}
	obs := Observation{
		Window:     window,
		CoreSteps:  steps,
		MemStep:    memStep,
		Cores:      make([]CoreObs, cfg.NCores),
		MemRate:    res.MemRate,
		MemLatency: res.Mem.Latency,
		UtilBus:    res.Mem.UtilBus,
		BusyFrac:   math.Min(1, res.Mem.UtilBank*8),
	}
	for i := range obs.Cores {
		obs.Cores[i] = CoreObs{
			Instructions: uint64(window / res.TPI[i]),
			Stats:        stats,
			L2PerInstr:   stats.Alpha,
			Mix:          trace.InstrMix{ALU: 0.3, FPU: 0.2, Branch: 0.1, LoadStore: 0.3},
			IPS:          1 / res.TPI[i],
		}
	}
	return obs
}

// biasInstr scales every instruction count uniformly — the signature of a
// uniformly biased counter bank (ratios survive, the identity does not).
func biasInstr(obs Observation, f float64) Observation {
	obs = obs.Clone()
	for i := range obs.Cores {
		obs.Cores[i].Instructions = uint64(float64(obs.Cores[i].Instructions) * f)
	}
	return obs
}

func isFailsafe(d Decision) bool {
	if d.MemStep != 0 {
		return false
	}
	for _, s := range d.CoreSteps {
		if s != 0 {
			return false
		}
	}
	return true
}

func TestHardenRejectsBadInputs(t *testing.T) {
	cfg := testCfg(4)
	if _, err := Harden(cfg, nil); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := Harden(Config{}, &stubPolicy{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Harden(cfg, must(NewOffline(cfg))); err == nil {
		t.Error("oracle policy accepted: the watchdog cannot vet oracle observations")
	}
}

func TestHardenedName(t *testing.T) {
	h := must(Harden(testCfg(4), &stubPolicy{}))
	if h.Name() != "Stub-Hardened" {
		t.Errorf("name %q", h.Name())
	}
	if h.Inner().Name() != "Stub" {
		t.Errorf("inner %q", h.Inner().Name())
	}
}

// TestHardenedTransparentWhenClean: on self-consistent observations whose
// settings echo the last request, the watchdog is invisible — every window
// reaches the inner policy and its decisions pass through untouched.
func TestHardenedTransparentWhenClean(t *testing.T) {
	cfg := testCfg(4)
	inner := &stubPolicy{decision: Decision{CoreSteps: ZeroSteps(cfg.NCores)}}
	h := must(Harden(cfg, inner))
	obs := hardObs(cfg, computeStats(), 300e-6, 0, 0)
	epoch := hardObs(cfg, computeStats(), 5e-3, 0, 0)
	for i := 0; i < 20; i++ {
		d := h.Decide(obs)
		if !isFailsafe(d) { // the stub requests all-max, same as failsafe; shape check only
			t.Fatalf("epoch %d: decision %+v not passed through", i, d)
		}
		h.Observe(epoch)
	}
	if inner.decides != 20 || inner.observes != 20 {
		t.Errorf("inner saw %d/%d windows, want 20/20", inner.decides, inner.observes)
	}
	if st := h.Stats(); st != (HardenedStats{}) {
		t.Errorf("clean run tripped the watchdog: %+v", st)
	}
}

// holdLength feeds clean windows to a watchdog that has just tripped and
// returns the hold's length in epochs, the trip epoch included: the count
// until the inner policy is consulted again.
func holdLength(t *testing.T, h *Hardened, inner *stubPolicy, clean Observation) int {
	t.Helper()
	held := 1 // the trip epoch
	for before := inner.decides; ; held++ {
		h.Decide(clean)
		if inner.decides != before {
			return held
		}
		if held > 10*hardenBackoffMax {
			t.Fatal("hold never expired")
		}
	}
}

// TestHardenedTripsOnBiasedCounters: uniformly biased counters break the
// cycle identity; after hardenTripAfter consecutive bad windows the watchdog
// holds max frequency for hardenBackoffMin epochs, then re-trusts, and a
// relapse doubles the hold.
func TestHardenedTripsOnBiasedCounters(t *testing.T) {
	cfg := testCfg(4)
	inner := &stubPolicy{decision: Decision{CoreSteps: ZeroSteps(cfg.NCores)}}
	h := must(Harden(cfg, inner))
	clean := hardObs(cfg, computeStats(), 300e-6, 0, 0)
	bad := biasInstr(clean, 1.2)

	// hardenTripAfter bad windows: conservative epochs, then a trip.
	for i := 1; i < hardenTripAfter; i++ {
		h.Decide(bad)
		if st := h.Stats(); st.Trips != 0 || st.InsaneWindows != i {
			t.Fatalf("after %d bad window(s): %+v", i, st)
		}
	}
	if inner.decides != 0 {
		t.Fatal("bad window reached the inner policy")
	}
	h.Decide(bad)
	if st := h.Stats(); st.Trips != 1 {
		t.Fatalf("no trip after %d bad windows: %+v", hardenTripAfter, st)
	}

	// The hold lasts hardenBackoffMin epochs (the trip epoch included) even
	// though the readings turn clean; the inner policy is consulted on the
	// first clean window after it.
	if held := holdLength(t, h, inner, clean); held != hardenBackoffMin {
		t.Errorf("first hold lasted %d epochs, want %d (hardenBackoffMin)", held, hardenBackoffMin)
	}
	if inner.decides != 1 {
		t.Fatalf("inner not re-trusted after hold expiry (decides=%d)", inner.decides)
	}
	if st := h.Stats(); st.FailsafeEpochs != hardenBackoffMin {
		t.Errorf("failsafe epochs %d, want %d (hardenBackoffMin)", st.FailsafeEpochs, hardenBackoffMin)
	}

	// Relapse: the next hold is doubled.
	for i := 0; i < hardenTripAfter; i++ {
		h.Decide(bad)
	}
	if st := h.Stats(); st.Trips != 2 {
		t.Fatalf("no second trip: %+v", st)
	}
	if held := holdLength(t, h, inner, clean); held != 2*hardenBackoffMin {
		t.Errorf("second hold lasted %d epochs, want %d (doubled backoff)", held, 2*hardenBackoffMin)
	}
}

// TestHardenedReTrustHalvesBackoff: sustained clean operation halves the
// backoff again, so an isolated late trip gets a short hold.
func TestHardenedReTrustHalvesBackoff(t *testing.T) {
	cfg := testCfg(4)
	inner := &stubPolicy{decision: Decision{CoreSteps: ZeroSteps(cfg.NCores)}}
	h := must(Harden(cfg, inner))
	clean := hardObs(cfg, computeStats(), 300e-6, 0, 0)
	bad := biasInstr(clean, 1.2)
	trip := func() {
		for i := 0; i < hardenTripAfter; i++ {
			h.Decide(bad)
		}
	}

	// Two trips double the backoff twice, to 4 × hardenBackoffMin; the
	// second hold's clean windows re-trust once as it expires, leaving
	// 2 × hardenBackoffMin.
	for i := 0; i < 2; i++ {
		trip()
		holdLength(t, h, inner, clean)
	}
	// 2 × hardenReTrustAfter clean windows halve it back to
	// hardenBackoffMin.
	for i := 0; i < 2*hardenReTrustAfter; i++ {
		h.Decide(clean)
	}
	trip()
	if st := h.Stats(); st.Trips != 3 {
		t.Fatalf("no third trip: %+v", st)
	}
	if held := holdLength(t, h, inner, clean); held != hardenBackoffMin {
		t.Errorf("post-re-trust hold lasted %d epochs, want %d (halved back to hardenBackoffMin)", held, hardenBackoffMin)
	}
}

// TestHardenedDetectsActuationMismatch: when the observed settings differ
// from the last request, the watchdog goes conservative instead of letting
// the inner policy reason from a state it never asked for.
func TestHardenedDetectsActuationMismatch(t *testing.T) {
	cfg := testCfg(4)
	req := Decision{CoreSteps: []int{1, 1, 1, 1}, MemStep: 1}
	inner := &stubPolicy{decision: req}
	h := must(Harden(cfg, inner))
	obs := hardObs(cfg, computeStats(), 300e-6, 0, 0)

	d := h.Decide(obs) // no prior request: echo check vacuous, inner consulted
	if isFailsafe(d) || inner.decides != 1 {
		t.Fatalf("first decision %+v (decides=%d)", d, inner.decides)
	}
	// The "engine" failed to apply step 1: the next window still reports 0.
	if !isFailsafe(h.Decide(obs)) {
		t.Error("mismatched actuation not met with a conservative epoch")
	}
	if st := h.Stats(); st.Mismatches == 0 {
		t.Errorf("mismatch not counted: %+v", st)
	}
	if inner.decides != 1 {
		t.Error("inner consulted on a mismatched window")
	}
}

// TestHardenedObserveWithholdsInsaneEpochs: implausible whole-epoch readings
// never reach the inner policy's slack accounting.
func TestHardenedObserveWithholdsInsaneEpochs(t *testing.T) {
	cfg := testCfg(4)
	inner := &stubPolicy{decision: Decision{CoreSteps: ZeroSteps(cfg.NCores)}}
	h := must(Harden(cfg, inner))
	epoch := hardObs(cfg, computeStats(), 5e-3, 0, 0)

	h.Observe(biasInstr(epoch, 1.3))
	if inner.observes != 0 {
		t.Error("insane epoch delivered to inner policy")
	}
	if st := h.Stats(); st.InsaneWindows != 1 {
		t.Errorf("insane epoch not counted: %+v", st)
	}
	h.Observe(epoch)
	if inner.observes != 1 {
		t.Error("sane epoch withheld from inner policy")
	}
}

// TestHardenedEpochToleranceAllowsTransitionSkew: a whole-epoch window whose
// identity is off by less than hardenEpochTolExtra (the profiling fraction ran at
// the previous frequencies) is accepted, while the same skew fails the
// tighter Decide-time check.
func TestHardenedEpochToleranceAllowsTransitionSkew(t *testing.T) {
	cfg := testCfg(4)
	inner := &stubPolicy{decision: Decision{CoreSteps: ZeroSteps(cfg.NCores)}}
	h := must(Harden(cfg, inner))
	epoch := biasInstr(hardObs(cfg, computeStats(), 5e-3, 0, 0), 1.08)
	h.Observe(epoch)
	if inner.observes != 1 {
		t.Error("transition-skewed epoch rejected by the epoch-tolerance check")
	}
	h.Decide(hardObs(cfg, computeStats(), 300e-6, 0, 0))
	if inner.decides != 1 {
		t.Error("clean profiling window rejected")
	}
	h.Decide(biasInstr(hardObs(cfg, computeStats(), 300e-6, 0, 0), 1.08))
	if inner.decides != 1 {
		t.Error("skewed profiling window accepted by the tight Decide-time check")
	}
}

// TestHardenedDeficitTrips: epochs that individually look plausible but
// persistently violate the (1+γ) bound — the system pinned at minimum
// frequency — trip the watchdog through the deficit tracker.
func TestHardenedDeficitTrips(t *testing.T) {
	cfg := testCfg(4)
	inner := &stubPolicy{decision: Decision{CoreSteps: ZeroSteps(cfg.NCores)}}
	h := must(Harden(cfg, inner))
	bottom := cfg.CoreLadder.Steps() - 1
	slow := hardObs(cfg, computeStats(), 5e-3, bottom, 0)
	for i := 0; i < 50 && h.Stats().Trips == 0; i++ {
		h.Observe(slow)
	}
	if h.Stats().Trips == 0 {
		t.Fatal("persistent bound violation never tripped the deficit watchdog")
	}
	if !isFailsafe(h.Decide(hardObs(cfg, computeStats(), 300e-6, 0, 0))) {
		t.Error("deficit trip did not force a failsafe decision")
	}
}
