// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment has a function returning structured rows
// (so benchmarks and CLIs can assert on or print them) and knows the paper's
// published numbers for the EXPERIMENTS.md paper-vs-measured record.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"coscale/internal/cache"
	"coscale/internal/core"
	"coscale/internal/policy"
	"coscale/internal/sim"
	"coscale/internal/workload"
)

// PolicyName selects one of the §3.2 controllers.
type PolicyName string

// The six policies of the evaluation.
const (
	Baseline        PolicyName = "Baseline"
	MemScaleName    PolicyName = "MemScale"
	CPUOnlyName     PolicyName = "CPUOnly"
	UncoordName     PolicyName = "Uncoordinated"
	SemiName        PolicyName = "Semi-coordinated"
	CoScaleName     PolicyName = "CoScale"
	OfflineName     PolicyName = "Offline"
	SemiOoPName     PolicyName = "Semi-coordinated-OoP"
	NoGroupingName  PolicyName = "CoScale-NoGrouping"
	NoMarginalCache PolicyName = "CoScale-NoCache"
	// HardenedName is CoScale wrapped in the graceful-degradation watchdog
	// (policy.Harden), for the error-tolerance study.
	HardenedName PolicyName = "CoScale-Hardened"
)

// PracticalPolicies is the Figure 8/9 comparison set in presentation order.
var PracticalPolicies = []PolicyName{MemScaleName, CPUOnlyName, UncoordName, SemiName, CoScaleName, OfflineName}

// NewPolicy instantiates a controller by name (nil for Baseline). Unknown
// names and invalid configurations are returned as errors: both reach this
// point from user input (CLI flags, experiment tables).
func NewPolicy(name PolicyName, cfg policy.Config) (policy.Policy, error) {
	switch name {
	case Baseline:
		return nil, nil
	case MemScaleName:
		return policy.NewMemScale(cfg)
	case CPUOnlyName:
		return policy.NewCPUOnly(cfg)
	case UncoordName:
		return policy.NewUncoordinated(cfg)
	case SemiName:
		return policy.NewSemiCoordinated(cfg)
	case SemiOoPName:
		p, err := policy.NewSemiCoordinated(cfg)
		if err != nil {
			return nil, err
		}
		p.OutOfPhase = true
		return p, nil
	case CoScaleName:
		return core.New(cfg)
	case OfflineName:
		return policy.NewOffline(cfg)
	case NoGroupingName:
		return core.NewWithOptions(cfg, core.Options{DisableGrouping: true})
	case NoMarginalCache:
		return core.NewWithOptions(cfg, core.Options{DisableMarginalCache: true})
	case HardenedName:
		p, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return policy.Harden(cfg, p)
	}
	return nil, fmt.Errorf("experiments: unknown policy %q", name)
}

// Runner executes experiments. The zero value uses the paper's full settings;
// reduce InstrBudget for fast test/bench runs.
type Runner struct {
	// InstrBudget overrides the per-application instruction budget
	// (default 100M, the paper's SimPoint length).
	InstrBudget uint64
	// Parallel bounds concurrent simulation runs (default NumCPU).
	Parallel int
	// Ctx, when non-nil, is the base context every context-free call
	// (Execute, the figure generators) derives from — the hook that lets
	// cmd/coscale-experiments cancel a whole figure regeneration on SIGINT.
	// Per-call contexts via ExecuteContext take precedence.
	Ctx context.Context

	// cache memoizes (mix, policy, keyExtra) outcomes and baselines
	// memoizes the shared no-DVFS run per (mix, keyExtra), both with
	// singleflight dedup (cache.Flight). Errors are memoized too —
	// simulations are deterministic, so a retry would fail the same way —
	// except context cancellations, which are forgotten so an interrupted
	// key can be recomputed.
	cache     cache.Flight[string, *Outcome]
	baselines cache.Flight[string, *sim.Result]

	// tables is the shared per-platform table cache (policy.TableCache)
	// every policy the runner constructs draws from: a sweep of many
	// policies and workloads over one platform builds the ladder columns
	// and memory queueing models once, not once per evaluator.
	tables policy.TableCache

	baselineRuns atomic.Int64 // baseline simulations actually executed
}

// NewRunner returns a Runner with the given instruction budget (0 = paper
// default).
func NewRunner(budget uint64) *Runner {
	return &Runner{InstrBudget: budget}
}

// Tables exposes the runner's shared per-platform table cache, for callers
// (the serving layer) that construct policies themselves but should still
// share one platform build with the runner's own simulations.
func (r *Runner) Tables() *policy.TableCache { return &r.tables }

// BaselineRuns reports how many baseline simulations the runner actually
// executed (as opposed to served from the shared per-(mix, keyExtra) cache) —
// telemetry for tests asserting the Figure 8/9 sweep runs one baseline per
// mix, not one per policy.
func (r *Runner) BaselineRuns() int64 { return r.baselineRuns.Load() }

// Outcome pairs a policy run with its matching baseline.
type Outcome struct {
	Base *sim.Result
	Run  *sim.Result
}

// FullSavings returns 1 − E_policy/E_base for total system energy.
func (o *Outcome) FullSavings() float64 {
	return 1 - o.Run.Energy.Total()/o.Base.Energy.Total()
}

// MemSavings returns memory-subsystem energy savings.
func (o *Outcome) MemSavings() float64 { return 1 - o.Run.Energy.Mem/o.Base.Energy.Mem }

// CPUSavings returns CPU (cores + L2) energy savings.
func (o *Outcome) CPUSavings() float64 {
	return 1 - (o.Run.Energy.CPU+o.Run.Energy.L2)/(o.Base.Energy.CPU+o.Base.Energy.L2)
}

// Degradations returns per-program slowdowns of the policy run versus the
// baseline run.
func (o *Outcome) Degradations() []float64 {
	out := make([]float64, len(o.Run.Apps))
	for i := range out {
		out[i] = o.Run.Apps[i].FinishTime/o.Base.Apps[i].FinishTime - 1
	}
	return out
}

// AvgDegradation returns the multiprogram-average slowdown.
func (o *Outcome) AvgDegradation() float64 {
	d := o.Degradations()
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// WorstDegradation returns the worst-program slowdown.
func (o *Outcome) WorstDegradation() float64 {
	worst := 0.0
	for _, v := range o.Degradations() {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// Execute runs (and caches) a policy against its baseline under cfg. The
// mix, policy and every cfg field that alters behaviour participate in the
// cache key via keyExtra.
//
// The no-DVFS baseline does not depend on the policy, so it is computed once
// per (mix, keyExtra) and shared — a six-policy sweep over a mix runs one
// baseline simulation, not six, and every Outcome for that mix holds the
// same *sim.Result pointer in Base. Concurrent Executes on overlapping keys
// are deduplicated singleflight-style: one goroutine simulates, the rest
// wait for its result.
func (r *Runner) Execute(mixName string, pol PolicyName, mutate func(*sim.Config), keyExtra string) (*Outcome, error) {
	return r.ExecuteContext(r.baseCtx(), mixName, pol, mutate, keyExtra)
}

// ExecuteContext is Execute with cancellation: the context is threaded down
// into the engine's epoch loop, so a long simulation stops within one epoch
// of ctx being done. A cancelled key is not memoized — the next caller
// recomputes it — but concurrent callers already sharing the in-flight slot
// receive the cancellation error.
func (r *Runner) ExecuteContext(ctx context.Context, mixName string, pol PolicyName, mutate func(*sim.Config), keyExtra string) (*Outcome, error) {
	return r.executeVsBase(ctx, mixName, pol, mutate, keyExtra, mutate, keyExtra)
}

// baseCtx resolves the context used by the context-free entry points.
func (r *Runner) baseCtx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// isCancellation reports whether err stems from context cancellation or
// timeout rather than a deterministic simulation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// executeVsBase is Execute with an independently keyed baseline: the policy
// run is built with mutate under keyExtra while the comparison baseline uses
// (baseMutate, baseKey). The fault-tolerance study uses this to compare
// every fault scenario against the one fault-free baseline — the true
// maximum-frequency performance — instead of simulating an identical
// baseline per scenario.
func (r *Runner) executeVsBase(ctx context.Context, mixName string, pol PolicyName, mutate func(*sim.Config), keyExtra string, baseMutate func(*sim.Config), baseKey string) (*Outcome, error) {
	key := mixName + "/" + string(pol) + "/" + keyExtra
	out, err := r.cache.Do(key, func() (*Outcome, error) {
		return r.execute(ctx, mixName, pol, mutate, baseMutate, baseKey)
	})
	if err != nil && isCancellation(err) {
		r.cache.Forget(key)
	}
	return out, err
}

// execute performs the (cache-miss) simulation work behind Execute.
func (r *Runner) execute(ctx context.Context, mixName string, pol PolicyName, mutate, baseMutate func(*sim.Config), baseKey string) (*Outcome, error) {
	base, err := r.baseline(ctx, mixName, baseMutate, baseKey)
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline %s: %w", mixName, err)
	}
	run := base
	if pol != Baseline {
		run, err = r.runOne(ctx, mixName, pol, mutate)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", pol, mixName, err)
		}
	}
	return &Outcome{Base: base, Run: run}, nil
}

// BaselineContext returns the shared no-DVFS run for (mixName, keyExtra),
// simulating it at most once across all policies and goroutines. It is
// exported for the serving layer (internal/server), which runs policy
// simulations itself — to stream per-epoch records — but still shares one
// baseline per workload configuration with every other request.
func (r *Runner) BaselineContext(ctx context.Context, mixName string, mutate func(*sim.Config), keyExtra string) (*sim.Result, error) {
	return r.baseline(ctx, mixName, mutate, keyExtra)
}

// baseline implements BaselineContext.
func (r *Runner) baseline(ctx context.Context, mixName string, mutate func(*sim.Config), keyExtra string) (*sim.Result, error) {
	key := mixName + "/" + keyExtra
	res, err := r.baselines.Do(key, func() (*sim.Result, error) {
		r.baselineRuns.Add(1)
		return r.runOne(ctx, mixName, Baseline, mutate)
	})
	if err != nil && isCancellation(err) {
		r.baselines.Forget(key)
	}
	return res, err
}

// runOne simulates a single (mix, policy) configuration.
func (r *Runner) runOne(ctx context.Context, mixName string, pol PolicyName, mutate func(*sim.Config)) (*sim.Result, error) {
	cfg := sim.Config{Mix: workload.MustGet(mixName), InstrBudget: r.InstrBudget}
	if mutate != nil {
		mutate(&cfg)
	}
	pcfg := cfg.PolicyConfig()
	pcfg.Tables = &r.tables
	p, err := NewPolicy(pol, pcfg)
	if err != nil {
		return nil, err
	}
	cfg.Policy = p
	eng, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return eng.RunContext(ctx)
}

// forEach runs fn for every item with bounded parallelism, collecting the
// first error.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	par := r.Parallel
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > n {
		par = n
	}
	sem := make(chan struct{}, par)
	errc := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errc <- fn(i)
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return err
		}
	}
	return nil
}
