package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"coscale/internal/core"
	"coscale/internal/experiments"
	"coscale/internal/policy"
	"coscale/internal/server"
	"coscale/internal/sim"
	"coscale/internal/workload"
)

// replayer runs simulate requests in-process through the same public calls
// the server's job runner makes — normalize and hash, the shared baseline,
// policy construction over the runner's table cache, the engine, and the
// JSON encoding of the result — recording one span per call, so a traced
// run can split a request's time by layer and bit-compare the replayed
// result with the one the stack returned.
type replayer struct {
	tr     *Tracer
	runner *experiments.Runner

	baselineMs []float64 // replays that actually simulated a baseline
	runs       int
	epochs     int
	instr      uint64

	// CoScale search work harvested from core.SearchStats.
	decides, moves, coreEvals int64
}

func newReplayer(tr *Tracer) *replayer {
	return &replayer{tr: tr, runner: &experiments.Runner{}}
}

// replay executes q and returns its SimulateResult and the duration of the
// whole pipeline in nanoseconds.
func (p *replayer) replay(ctx context.Context, q server.SimulateRequest, req int64) (server.SimulateResult, int64, error) {
	var out server.SimulateResult
	tr := p.tr
	root, t0 := tr.NewID(), tr.Now()

	s := tr.Now()
	n, err := q.Normalized()
	if err == nil {
		_, err = n.Hash()
	}
	tr.Span(0, root, req, "server.normalize", s)
	if err != nil {
		return out, 0, err
	}
	mix, err := workload.Get(n.Workload)
	if err != nil {
		return out, 0, err
	}

	s = tr.Now()
	before := p.runner.BaselineRuns()
	base, err := p.runner.BaselineContext(ctx, n.Workload, func(c *sim.Config) { mutateBase(n, c) }, baselineKey(n))
	if d := tr.Span(0, root, req, "experiments.baseline", s); p.runner.BaselineRuns() > before {
		p.baselineMs = append(p.baselineMs, float64(d)/float64(time.Millisecond))
	}
	if err != nil {
		return out, 0, err
	}

	cfg := sim.Config{Mix: mix}
	mutateBase(n, &cfg)
	cfg.Gamma = n.Bound
	pcfg := cfg.PolicyConfig()
	pcfg.Tables = p.runner.Tables()
	s = tr.Now()
	pol, err := experiments.NewPolicy(experiments.PolicyName(n.Policy), pcfg)
	tr.Span(0, root, req, "policy.new", s)
	if err != nil {
		return out, 0, err
	}
	runID := tr.NewID()
	var stats interface{ SearchStats() core.SearchStats }
	if pol != nil {
		stats, _ = pol.(interface{ SearchStats() core.SearchStats })
		cfg.Policy = spanned(pol, n.Policy, tr, runID, req, stats != nil)
	}

	s = tr.Now()
	eng, err := sim.New(cfg)
	tr.Span(0, root, req, "sim.new", s)
	if err != nil {
		return out, 0, err
	}
	s = tr.Now()
	res, err := eng.RunContext(ctx)
	tr.Span(runID, root, req, "sim.run", s)
	if err != nil {
		return out, 0, err
	}
	p.runs++
	p.epochs += res.Epochs
	p.instr += res.TotalInstructions
	if sp, ok := cfg.Policy.(interface{ searchWork() (int64, int64, int64) }); ok {
		d, m, c := sp.searchWork()
		p.decides, p.moves, p.coreEvals = p.decides+d, p.moves+m, p.coreEvals+c
	}

	out = simulateResult(n, &experiments.Outcome{Base: base, Run: res})
	s = tr.Now()
	_, err = json.Marshal(out)
	tr.Span(0, root, req, "server.marshal", s)
	if err != nil {
		return out, 0, err
	}
	return out, tr.Span(root, 0, req, "replay", t0), nil
}

// layerReplay reports the layers a replayer's spans cover.
func layerReplay(res *Result, st spanStats, rp *replayer) {
	us, ms := time.Microsecond, time.Millisecond
	res.set("experiments.baseline_runs", float64(rp.runner.BaselineRuns()))
	res.set("experiments.baseline_ms_p50", median(rp.baselineMs))
	res.set("policy.new_us_p50", st.p("policy.new", 50, us))
	builds, hits := rp.runner.Tables().Stats()
	res.set("policy.tables_builds", float64(builds))
	res.set("policy.tables_hits", float64(hits))
	for _, p := range experiments.PracticalPolicies {
		if p != experiments.CoScaleName {
			res.set("policy.decide_us_p50."+string(p), st.p("policy.decide."+string(p), 50, us))
		}
	}
	res.set("sim.run_ms_p50", st.p("sim.run", 50, ms))
	res.set("sim.run_ms_p99", st.p("sim.run", 99, ms))
	res.set("sim.epochs_total", float64(rp.epochs))
	if rp.epochs > 0 {
		res.set("sim.self_us_per_epoch", 1e6*st.totalSelf("sim.run")/float64(rp.epochs))
		res.set("sim.epochs_per_op", float64(rp.epochs)/float64(rp.runs))
	}
	if run := st.total("sim.run"); run > 0 {
		res.set("sim.minstr_per_host_s", float64(rp.instr)/1e6/run)
		res.set("core.search_share", st.total("core.decide")/run)
	}
	coreSearch(res, st, rp.decides, rp.moves, rp.coreEvals)
}

// coreSearch reports the CoScale search: decision and observation times
// and the work per decision.
func coreSearch(res *Result, st spanStats, decides, moves, coreEvals int64) {
	us := time.Microsecond
	res.set("core.decide_us_p50", st.p("core.decide", 50, us))
	res.set("core.decide_us_p99", st.p("core.decide", 99, us))
	res.set("core.observe_us_p50", st.p("core.observe", 50, us))
	if decides > 0 {
		res.set("core.moves_per_decide", float64(moves)/float64(decides))
		res.set("core.core_evals_per_decide", float64(coreEvals)/float64(decides))
	}
	if moves > 0 {
		res.set("core.ns_per_move", 1e9*st.total("core.decide")/float64(moves))
	}
}

// mutateBase applies the request fields that change the no-DVFS baseline;
// baselineKey keys the shared baseline by exactly those fields, so requests
// that differ only in policy or bound share one baseline simulation.
func mutateBase(q server.SimulateRequest, c *sim.Config) {
	c.InstrBudget = q.Instructions
	c.Prefetch = q.Prefetch
	c.OoO = q.OoO
	c.MigrateEvery = q.MigrateEvery
	c.MaxEpochs = q.MaxEpochs
}

func baselineKey(q server.SimulateRequest) string {
	return fmt.Sprintf("i=%d/pf=%t/ooo=%t/mig=%d/me=%d", q.Instructions, q.Prefetch, q.OoO, q.MigrateEvery, q.MaxEpochs)
}

// simulateResult renders an outcome as the server's response body.
func simulateResult(q server.SimulateRequest, o *experiments.Outcome) server.SimulateResult {
	res := server.SimulateResult{
		Workload: q.Workload,
		Policy:   q.Policy,
		Epochs:   o.Run.Epochs,
		WallTime: o.Run.WallTime,
		Energy:   energyJSON(o.Run.Energy),
		Baseline: server.BaselineJSON{
			Epochs:   o.Base.Epochs,
			WallTime: o.Base.WallTime,
			Energy:   energyJSON(o.Base.Energy),
		},
		FullSavings:      o.FullSavings(),
		CPUSavings:       o.CPUSavings(),
		MemSavings:       o.MemSavings(),
		Degradations:     o.Degradations(),
		AvgDegradation:   o.AvgDegradation(),
		WorstDegradation: o.WorstDegradation(),
	}
	for _, a := range o.Run.Apps {
		res.Apps = append(res.Apps, server.AppJSON{Core: a.Core, App: a.App, Instructions: a.Instructions, FinishTime: a.FinishTime})
	}
	return res
}

func energyJSON(e sim.Energy) server.EnergyJSON {
	return server.EnergyJSON{CPU: e.CPU, L2: e.L2, Mem: e.Mem, Rest: e.Rest, Total: e.Total()}
}

// sameResult requires a result the stack returned to carry exactly want's
// numbers, each float compared by Float64bits as the repository's
// bit-identity tests compare them.
func sameResult(raw json.RawMessage, want server.SimulateResult) error {
	var got server.SimulateResult
	if err := json.Unmarshal(raw, &got); err != nil {
		return err
	}
	g, w := resultFloats(got), resultFloats(want)
	if got.Epochs != want.Epochs || got.Baseline.Epochs != want.Baseline.Epochs || len(g) != len(w) {
		return fmt.Errorf("%s/%s: epochs or apps differ from the reference", want.Workload, want.Policy)
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Errorf("%s/%s: value %d is %v, the reference %v", want.Workload, want.Policy, i, g[i], w[i])
		}
	}
	return nil
}

func resultFloats(r server.SimulateResult) []float64 {
	out := []float64{r.WallTime, r.Energy.CPU, r.Energy.L2, r.Energy.Mem, r.Energy.Rest, r.Energy.Total,
		r.Baseline.WallTime, r.Baseline.Energy.Total, r.FullSavings, r.CPUSavings, r.MemSavings,
		r.AvgDegradation, r.WorstDegradation}
	out = append(out, r.Degradations...)
	for _, a := range r.Apps {
		out = append(out, a.FinishTime)
	}
	return out
}

// spanPolicy records a span around every Decide and Observe of the policy
// it wraps. CoScale calls are named core.*, the other controllers
// policy.decide.<Name>; CoScale's search statistics are summed as well.
type spanPolicy struct {
	inner         policy.Policy
	tr            *Tracer
	parent, req   int64
	decide, obs   string
	stats         interface{ SearchStats() core.SearchStats }
	n, moves, evs int64
}

// spanned wraps pol, the controller a request names. Oracle policies keep
// their OraclePolicy identity: the engine type-asserts it to hand them
// oracle observations, so a plain wrapper would change their decisions.
func spanned(pol policy.Policy, name string, tr *Tracer, parent, req int64, isCore bool) policy.Policy {
	sp := spanPolicy{inner: pol, tr: tr, parent: parent, req: req,
		decide: "policy.decide." + name, obs: "policy.observe." + name}
	if isCore {
		sp.decide, sp.obs = "core.decide", "core.observe"
		sp.stats, _ = pol.(interface{ SearchStats() core.SearchStats })
	}
	if op, ok := pol.(policy.OraclePolicy); ok {
		return &spanOracle{sp, op}
	}
	return &sp
}

func (p *spanPolicy) Name() string { return p.inner.Name() }

func (p *spanPolicy) Decide(obs policy.Observation) policy.Decision {
	s := p.tr.Now()
	d := p.inner.Decide(obs)
	p.tr.Span(0, p.parent, p.req, p.decide, s)
	if p.stats != nil {
		st := p.stats.SearchStats()
		p.n++
		p.moves += int64(st.Moves)
		p.evs += int64(st.CoreEvals)
	}
	return d
}

func (p *spanPolicy) Observe(epoch policy.Observation) {
	s := p.tr.Now()
	p.inner.Observe(epoch)
	p.tr.Span(0, p.parent, p.req, p.obs, s)
}

func (p *spanPolicy) searchWork() (decides, moves, coreEvals int64) { return p.n, p.moves, p.evs }

type spanOracle struct {
	spanPolicy
	op policy.OraclePolicy
}

func (p *spanOracle) WantsOracle() bool { return p.op.WantsOracle() }
