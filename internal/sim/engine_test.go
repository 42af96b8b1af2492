package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"coscale/internal/core"
	"coscale/internal/freq"
	"coscale/internal/policy"
	"coscale/internal/workload"
)

// testConfig returns a fast configuration: reduced instruction budget so a
// run completes in a few dozen epochs.
func testConfig(t *testing.T, mixName string) Config {
	t.Helper()
	return Config{
		Mix:         workload.MustGet(mixName),
		InstrBudget: 40_000_000,
	}
}

// must unwraps a constructor's (value, error) pair for test setup; a
// non-nil error is a broken fixture, reported by panicking (Go forbids
// f(t, g()) with a multi-valued g, so the helper cannot also take t).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// run executes a config, failing the test on error.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// degradations returns per-app slowdown of res vs base, matched by core.
func degradations(t *testing.T, base, res *Result) []float64 {
	t.Helper()
	out := make([]float64, len(res.Apps))
	for i := range res.Apps {
		if base.Apps[i].FinishTime <= 0 {
			t.Fatalf("baseline app %d has no finish time", i)
		}
		out[i] = res.Apps[i].FinishTime/base.Apps[i].FinishTime - 1
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestBaselineRunCompletes(t *testing.T) {
	for _, mix := range []string{"ILP1", "MID1", "MEM1", "MIX2"} {
		res := run(t, testConfig(t, mix))
		if res.Epochs == 0 || res.WallTime <= 0 {
			t.Errorf("%s: degenerate run %+v", mix, res)
		}
		if res.Energy.Total() <= 0 {
			t.Errorf("%s: no energy accumulated", mix)
		}
		for _, a := range res.Apps {
			if a.FinishTime <= 0 {
				t.Errorf("%s: app %s never finished", mix, a.App)
			}
			if a.Instructions < 40_000_000-1000 { // tolerance for truncation rounding
				t.Errorf("%s: app %s committed %d instructions, want >= budget", mix, a.App, a.Instructions)
			}
		}
	}
}

func TestBaselineMemSlowerThanILP(t *testing.T) {
	ilp := run(t, testConfig(t, "ILP1"))
	mem := run(t, testConfig(t, "MEM1"))
	if mem.WallTime <= ilp.WallTime {
		t.Errorf("MEM1 (%.3fs) should run slower than ILP1 (%.3fs)", mem.WallTime, ilp.WallTime)
	}
}

func TestCoScaleMeetsBoundAndSavesEnergy(t *testing.T) {
	for _, mix := range []string{"ILP1", "MID1", "MEM1", "MIX2"} {
		base := run(t, testConfig(t, mix))

		cfg := testConfig(t, mix)
		cfg.Policy = must(core.New(cfg.PolicyConfig()))
		res := run(t, cfg)

		deg := degradations(t, base, res)
		worst := maxOf(deg)
		if worst > 0.10+0.01 {
			t.Errorf("%s: CoScale worst degradation %.1f%% exceeds 10%% bound", mix, worst*100)
		}
		save := 1 - res.Energy.Total()/base.Energy.Total()
		t.Logf("%s: CoScale energy savings %.1f%%, worst degradation %.1f%%, epochs %d",
			mix, save*100, worst*100, res.Epochs)
		if save < 0.05 {
			t.Errorf("%s: CoScale saved only %.1f%% energy", mix, save*100)
		}
	}
}

func TestUncoordinatedViolatesBound(t *testing.T) {
	// The headline motivation (Figs. 1, 9): independent managers double-
	// spend the slack. Across the mixes, Uncoordinated's worst-case
	// degradation must exceed the bound somewhere.
	worstAnywhere := 0.0
	for _, mix := range []string{"MID1", "MEM1", "MIX2"} {
		base := run(t, testConfig(t, mix))
		cfg := testConfig(t, mix)
		cfg.Policy = must(policy.NewUncoordinated(cfg.PolicyConfig()))
		res := run(t, cfg)
		w := maxOf(degradations(t, base, res))
		t.Logf("%s: Uncoordinated worst degradation %.1f%%", mix, w*100)
		if w > worstAnywhere {
			worstAnywhere = w
		}
	}
	if worstAnywhere <= 0.105 {
		t.Errorf("Uncoordinated never violated the 10%% bound (worst %.1f%%); managers are not double-spending", worstAnywhere*100)
	}
}

func TestSemiCoordinatedMeetsBoundButSavesLessThanCoScale(t *testing.T) {
	var semiTotal, coTotal float64
	for _, mix := range []string{"MID1", "MEM2", "MIX2"} {
		base := run(t, testConfig(t, mix))

		cfg := testConfig(t, mix)
		cfg.Policy = must(policy.NewSemiCoordinated(cfg.PolicyConfig()))
		semi := run(t, cfg)
		w := maxOf(degradations(t, base, semi))
		if w > 0.10+0.015 {
			t.Errorf("%s: Semi-coordinated violated bound: %.1f%%", mix, w*100)
		}

		cfg2 := testConfig(t, mix)
		cfg2.Policy = must(core.New(cfg2.PolicyConfig()))
		co := run(t, cfg2)

		semiSave := 1 - semi.Energy.Total()/base.Energy.Total()
		coSave := 1 - co.Energy.Total()/base.Energy.Total()
		t.Logf("%s: semi %.1f%% vs coscale %.1f%%", mix, semiSave*100, coSave*100)
		semiTotal += semiSave
		coTotal += coSave
	}
	if coTotal < semiTotal-0.005 {
		t.Errorf("CoScale total savings %.3f should be >= Semi-coordinated %.3f", coTotal, semiTotal)
	}
}

func TestOfflineAtLeastMatchesCoScale(t *testing.T) {
	var offTotal, coTotal float64
	for _, mix := range []string{"MID1", "MIX2"} {
		base := run(t, testConfig(t, mix))
		cfg := testConfig(t, mix)
		cfg.Policy = must(policy.NewOffline(cfg.PolicyConfig()))
		off := run(t, cfg)
		w := maxOf(degradations(t, base, off))
		if w > 0.10+0.015 {
			t.Errorf("%s: Offline violated bound: %.1f%%", mix, w*100)
		}
		cfg2 := testConfig(t, mix)
		cfg2.Policy = must(core.New(cfg2.PolicyConfig()))
		co := run(t, cfg2)
		offTotal += 1 - off.Energy.Total()/base.Energy.Total()
		coTotal += 1 - co.Energy.Total()/base.Energy.Total()
	}
	t.Logf("offline total %.3f, coscale total %.3f", offTotal, coTotal)
	// CoScale should come close to Offline (within a few points total).
	if coTotal < offTotal-0.06 {
		t.Errorf("CoScale (%.3f) far below Offline (%.3f)", coTotal, offTotal)
	}
}

func TestSingleKnobPoliciesSaveLessSystemEnergy(t *testing.T) {
	mix := "MID1"
	base := run(t, testConfig(t, mix))

	results := map[string]float64{}
	for name, mk := range map[string]func(policy.Config) (policy.Policy, error){
		"MemScale": func(c policy.Config) (policy.Policy, error) { return policy.NewMemScale(c) },
		"CPUOnly":  func(c policy.Config) (policy.Policy, error) { return policy.NewCPUOnly(c) },
		"CoScale":  func(c policy.Config) (policy.Policy, error) { return core.New(c) },
	} {
		cfg := testConfig(t, mix)
		cfg.Policy = must(mk(cfg.PolicyConfig()))
		res := run(t, cfg)
		if w := maxOf(degradations(t, base, res)); w > 0.10+0.015 {
			t.Errorf("%s violated bound: %.1f%%", name, w*100)
		}
		results[name] = 1 - res.Energy.Total()/base.Energy.Total()
		t.Logf("%s savings: %.1f%%", name, results[name]*100)
	}
	if results["CoScale"] <= results["MemScale"] || results["CoScale"] <= results["CPUOnly"] {
		t.Errorf("CoScale (%.3f) should beat MemScale (%.3f) and CPUOnly (%.3f)",
			results["CoScale"], results["MemScale"], results["CPUOnly"])
	}
}

func TestTimelineRecording(t *testing.T) {
	cfg := testConfig(t, "MIX2")
	cfg.Policy = must(core.New(cfg.PolicyConfig()))
	cfg.RecordTimeline = true
	res := run(t, cfg)
	if len(res.Timeline) != res.Epochs {
		t.Fatalf("timeline has %d records for %d epochs", len(res.Timeline), res.Epochs)
	}
	for _, rec := range res.Timeline {
		if rec.MemHz <= 0 || len(rec.CoreHz) != 16 {
			t.Fatalf("bad record %+v", rec)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		field  string
		mutate func(*Config)
	}{
		{"no mix", "Mix", func(c *Config) { c.Mix = workload.Mix{} }},
		{"profile >= epoch", "ProfileLen", func(c *Config) { c.ProfileLen = 10 * time.Millisecond }},
		{"negative profile", "ProfileLen", func(c *Config) { c.ProfileLen = -time.Microsecond }},
		{"gamma > 1", "Gamma", func(c *Config) { c.Gamma = 1.5 }},
		{"gamma < 0", "Gamma", func(c *Config) { c.Gamma = -0.1 }},
		{"negative max epochs", "MaxEpochs", func(c *Config) { c.MaxEpochs = -1 }},
		{"negative migrate", "MigrateEvery", func(c *Config) { c.MigrateEvery = -2 }},
		{"degenerate ladder", "CoreLadder", func(c *Config) {
			// min == max with several steps yields duplicate frequencies.
			l, err := freq.NewLadder(2e9, 2e9, 1.0, 1.0, 4)
			if err != nil {
				t.Fatal(err)
			}
			c.CoreLadder = l
		}},
	}
	for _, tc := range cases {
		cfg := testConfig(t, "ILP1")
		tc.mutate(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s: New succeeded", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not match ErrInvalidConfig", tc.name, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
		} else if ce.Field != tc.field {
			t.Errorf("%s: error on field %s, want %s (%v)", tc.name, ce.Field, tc.field, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		cfg := testConfig(t, "MID2")
		cfg.Policy = must(core.New(cfg.PolicyConfig()))
		return run(t, cfg)
	}
	a, b := mk(), mk()
	if a.WallTime != b.WallTime || a.Energy != b.Energy || a.Epochs != b.Epochs {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}
