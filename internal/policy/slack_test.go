package policy_test

import (
	"math"
	"testing"

	"coscale/internal/core"
	"coscale/internal/policy"
	"coscale/internal/sim"
	"coscale/internal/workload"
)

// slackEvent is one call the engine made on a controller: Decide when
// decide is set, Observe otherwise.
type slackEvent struct {
	decide bool
	obs    policy.Observation
}

// slackRecorder is a controller with every observation it is fed recorded.
type slackRecorder struct {
	policy.Policy
	events *[]slackEvent
}

func (r slackRecorder) Decide(obs policy.Observation) policy.Decision {
	*r.events = append(*r.events, slackEvent{decide: true, obs: obs.Clone()})
	return r.Policy.Decide(obs)
}

func (r slackRecorder) Observe(obs policy.Observation) {
	*r.events = append(*r.events, slackEvent{obs: obs.Clone()})
	r.Policy.Observe(obs)
}

// recordSlackTraffic runs CoScale on mix at 16M instructions per
// application and returns the controller configuration and every call the
// engine made, in order.
func recordSlackTraffic(t *testing.T, mix string) (policy.Config, []slackEvent) {
	t.Helper()
	sc := sim.Config{Mix: workload.MustGet(mix), InstrBudget: 16_000_000}
	cfg := sc.PolicyConfig()
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []slackEvent
	sc.Policy = slackRecorder{c, &events}
	eng, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return cfg, events
}

// rotated returns the mapping that puts thread (i+k) mod n on core i; k 0
// is the identity.
func rotated(n, k int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i + k) % n
	}
	return ids
}

// threadsOn returns the thread on each core of obs, defaulting to identity.
func threadsOn(obs policy.Observation) []int {
	if obs.ThreadIDs != nil {
		return obs.ThreadIDs
	}
	return rotated(len(obs.Cores), 0)
}

// refLedger is the slack rule written out once, independently of
// SlackBook: each finished epoch credits a thread (1+γ) times its core's
// instructions at the all-max TPI of the direct reference model, and charges
// the epoch's wall time plus the reserve.
type refLedger map[int]float64

func (l refLedger) observe(cfg policy.Config, epoch policy.Observation) {
	base := policy.NewDirectEvaluator(cfg, epoch).Baseline().TPI
	for i, id := range threadsOn(epoch) {
		tMax := float64(epoch.Cores[i].Instructions) * base[i]
		l[id] += tMax*(1+cfg.Gamma) - (epoch.Window + cfg.Reserve)
	}
}

func (l refLedger) limits(cfg policy.Config, obs policy.Observation) []float64 {
	ids := threadsOn(obs)
	avail := make([]float64, len(ids))
	for i, id := range ids {
		avail[i] = l[id]
	}
	return cfg.Limits(avail)
}

// slackController builds a fresh controller by name and returns its slack
// book.
func slackController(t *testing.T, name string, cfg policy.Config) (policy.Policy, *policy.SlackBook) {
	t.Helper()
	var p policy.Policy
	var err error
	switch name {
	case "CoScale":
		p, err = core.New(cfg)
	case "PowerCap":
		p, err = core.NewPowerCap(cfg, 200)
	case "MemScale":
		p, err = policy.NewMemScale(cfg)
	case "CPUOnly":
		p, err = policy.NewCPUOnly(cfg)
	case "Semi-coordinated":
		p, err = policy.NewSemiCoordinated(cfg)
	case "Offline":
		p, err = policy.NewOffline(cfg)
	default:
		t.Fatalf("unknown controller %s", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	switch c := p.(type) {
	case *core.CoScale:
		return c, c.Slack()
	case *core.PowerCap:
		return c, c.Slack()
	}
	return p, policy.SlackOf(p)
}

// TestControllersKeepSlackAlike drives every slack-keeping controller
// through the same engine-recorded epochs, with the threads unmapped
// (nil ThreadIDs), mapped to themselves, and rotated one core per epoch.
// Before every Decide each controller's limits, and after every Observe
// each thread's slack, must equal the reference ledger's bit for bit: the
// controllers keep one slack rule, and it is the paper's.
func TestControllersKeepSlackAlike(t *testing.T) {
	mappings := []struct {
		name string
		ids  func(n, epoch int) []int
	}{
		{"nil", func(int, int) []int { return nil }},
		{"identity", func(n, _ int) []int { return rotated(n, 0) }},
		{"rotating", rotated},
	}
	controllers := []string{"CoScale", "PowerCap", "MemScale", "CPUOnly", "Semi-coordinated", "Offline"}
	for _, mix := range []string{"MEM1", "MIX2", "ILP1"} {
		cfg, events := recordSlackTraffic(t, mix)
		for _, m := range mappings {
			mapped := make([]slackEvent, len(events))
			epoch := 0
			for k, e := range events {
				mapped[k] = e
				mapped[k].obs.ThreadIDs = m.ids(len(e.obs.Cores), epoch)
				if !e.decide {
					epoch++
				}
			}
			for _, name := range controllers {
				t.Run(mix+"/"+m.name+"/"+name, func(t *testing.T) {
					p, book := slackController(t, name, cfg)
					ref := refLedger{}
					observed := 0
					for k, e := range mapped {
						if e.decide {
							checkBits(t, k, "limit", book.Limits(e.obs), ref.limits(cfg, e.obs))
							p.Decide(e.obs)
							continue
						}
						p.Observe(e.obs)
						ref.observe(cfg, e.obs)
						observed++
						ids := threadsOn(e.obs)
						want := make([]float64, len(ids))
						for i, id := range ids {
							want[i] = ref[id]
						}
						checkBits(t, k, "slack", book.AvailableFor(ids), want)
					}
					if observed == 0 {
						t.Fatal("no epoch was observed")
					}
				})
			}
		}
	}
}

// checkBits fails t at the first element of got whose bits differ from
// want's.
func checkBits(t *testing.T, call int, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("call %d core %d: %s %v, reference %v", call, i, what, got[i], want[i])
		}
	}
}

// TestHardenedDeficitKeepsSlackRule replays the same engine-recorded epochs
// through a hardened CoScale and holds the watchdog's per-thread deficit to
// a reference on the direct model after every Observe: each sane epoch adds the
// wall time less (1+γ) times the all-max time, clamped at zero, and a trip
// clears the table.
func TestHardenedDeficitKeepsSlackRule(t *testing.T) {
	for _, mix := range []string{"MEM1", "MIX2", "ILP1"} {
		cfg, events := recordSlackTraffic(t, mix)
		inner, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := policy.Harden(cfg, inner)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]float64, cfg.NCores)
		sane := 0
		for k, e := range events {
			if e.decide {
				h.Decide(e.obs)
				continue
			}
			before := h.Stats()
			h.Observe(e.obs)
			after := h.Stats()
			if after.InsaneWindows == before.InsaneWindows {
				sane++
				base := policy.NewDirectEvaluator(cfg, e.obs).Baseline().TPI
				for i, id := range threadsOn(e.obs) {
					tMax := float64(e.obs.Cores[i].Instructions) * base[i]
					d := ref[id] + e.obs.Window - (1+cfg.Gamma)*tMax
					if d < 0 {
						d = 0
					}
					ref[id] = d
				}
			}
			if after.Trips != before.Trips {
				clear(ref)
			}
			checkBits(t, k, "deficit", policy.HardenedDeficit(h), ref)
		}
		if sane == 0 {
			t.Fatalf("%s: no epoch passed the watchdog", mix)
		}
	}
}
