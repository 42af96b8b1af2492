package policy_test

import (
	"slices"
	"testing"

	"coscale/internal/experiments"
	"coscale/internal/policy"
)

// offlineTrafficBudget is the per-application budget of the recorded
// traffic TestOfflineMatchesReference replays: the paper's, which
// coscale-serve simulates by default.
const offlineTrafficBudget = 100_000_000

// TestOfflineMatchesReference replays Offline's recorded oracle traffic on
// every Table 1 mix at bounds 5%, 10% and 15%, and requires each decision
// to equal refOffline's element for element: the direct Offline that
// solves every memory step, runs both rounds and verifies every winner.
// Each of Offline's trims must also have fired, exactly where the
// reference says it can: a sweep finds nothing only when some core has no
// in-limit step, a second round is skipped only when it repeats the first
// round's vector, and step 0's all-max point is the baseline's, bit for bit.
func TestOfflineMatchesReference(t *testing.T) {
	cells, err := experiments.RecordOfflineTraffic(offlineTrafficBudget)
	if err != nil {
		t.Fatal(err)
	}
	var got policy.OfflineStats
	var ref policy.RefOfflineStats
	decisions := 0
	for _, c := range cells {
		p, err := policy.NewOffline(c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, e := range c.Events {
			if !e.Decide {
				p.Observe(e.Obs)
				continue
			}
			d := p.Decide(e.Obs)
			want := policy.RefOfflineDecide(p, e.Obs, &ref)
			if d.MemStep != want.MemStep || !slices.Equal(d.CoreSteps, want.CoreSteps) {
				t.Fatalf("%s gamma %v call %d: Offline = %v mem %d, reference = %v mem %d",
					c.Mix, c.Cfg.Gamma, k, d.CoreSteps, d.MemStep, want.CoreSteps, want.MemStep)
			}
			decisions++
		}
		st := p.Stats()
		got.Sweeps += st.Sweeps
		got.Infeasible += st.Infeasible
		got.Repeats += st.Repeats
	}
	if got.Sweeps != ref.Sweeps || got.Infeasible != ref.NoInLimit || got.Repeats != ref.Repeats ||
		ref.BaselineSolves != decisions {
		t.Errorf("Offline: %d sweeps, %d infeasible, %d skipped verifications; reference: %d sweeps, "+
			"%d with a core over its limit at every step, %d repeated second rounds; "+
			"step 0 solved to the baseline's latency in %d of %d decisions",
			got.Sweeps, got.Infeasible, got.Repeats, ref.Sweeps, ref.NoInLimit, ref.Repeats,
			ref.BaselineSolves, decisions)
	}
	if got.Infeasible == 0 || got.Repeats == 0 || decisions == 0 {
		t.Errorf("a trim never fired: %d infeasible sweeps, %d skipped verifications, %d decisions",
			got.Infeasible, got.Repeats, decisions)
	}
	t.Logf("%d cells, %d decisions: %d sweeps, %d infeasible, %d skipped verifications",
		len(cells), decisions, got.Sweeps, got.Infeasible, got.Repeats)
}
