package core_test

import (
	"math"
	"slices"
	"testing"

	"coscale/internal/core"
	"coscale/internal/experiments"
	"coscale/internal/policy"
	"coscale/internal/trace"
)

// TestDecideIndependentOfHistory: a decision is a function of the
// observation and the slack the controller holds, never of the decisions
// before it. A controller is driven through a seeded sequence of
// observations, with Observe between decisions feeding back each epoch; at
// every step a Reset controller credited with the same per-thread slack
// must decide the same bits.
func TestDecideIndependentOfHistory(t *testing.T) {
	for _, n := range []int{16, 128} {
		var cfg policy.Config
		obs := make([]policy.Observation, 4)
		for s := range obs {
			cfg, obs[s] = experiments.SearchBenchObsSeed(n, uint64(s+1))
		}
		live, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := trace.NewRand(uint64(n))
		var ev policy.Evaluator
		var epoch policy.Observation
		for step := 0; step < 40; step++ {
			o := obs[rng.Intn(uint64(len(obs)))]
			threads := o.CoreThreads()
			slack := live.Slack().AvailableFor(threads)
			d := live.Decide(o)

			ref.Reset()
			for c, th := range threads {
				ref.Slack().Thread(th).Record(0, -slack[c]) // credits exactly slack[c]
			}
			r := ref.Decide(o)
			if r.MemStep != d.MemStep || !slices.Equal(r.CoreSteps, d.CoreSteps) {
				t.Fatalf("%d cores, step %d: decision %v/%d differs from a fresh controller's %v/%d",
					n, step, d.CoreSteps, d.MemStep, r.CoreSteps, r.MemStep)
			}

			// The epoch the decision predicts, run a little faster or slower
			// than predicted so the slack book both earns and spends.
			ev.Reset(cfg, o)
			e := ev.Evaluate(d.CoreSteps, d.MemStep)
			epoch.Window = cfg.EpochLen.Seconds()
			epoch.CoreSteps = append(epoch.CoreSteps[:0], d.CoreSteps...)
			epoch.MemStep = d.MemStep
			epoch.Cores = append(epoch.Cores[:0], o.Cores...)
			speed := 0.95 + 0.1*rng.Float64()
			for i := range epoch.Cores {
				epoch.Cores[i].Instructions = uint64(math.Round(speed * epoch.Window / e.TPI[i]))
				epoch.Cores[i].IPS = speed / e.TPI[i]
			}
			epoch.MemRate, epoch.MemLatency, epoch.UtilBus, epoch.BusyFrac = o.MemRate, o.MemLatency, o.UtilBus, o.BusyFrac
			live.Observe(epoch)
		}
	}
}
