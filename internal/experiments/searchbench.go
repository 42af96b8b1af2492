package experiments

import (
	"sync"
	"testing"
	"time"

	"coscale/internal/core"
	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/sim"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// SearchBenchObs builds the synthetic profiling observation behind the §3.1
// search-cost benchmarks (BenchSearch*Cores): n cores with deterministic
// pseudo-random memory intensities on the paper's default system.
func SearchBenchObs(n int) (policy.Config, policy.Observation) {
	return SearchBenchObsSeed(n, 11)
}

// SearchBenchObsSeed is SearchBenchObs with the intensity-drawing seed
// exposed, for the load generator's control-1024 workload, which cycles a
// 1024-core controller through several distinct (but still deterministic)
// observations. Seed 11 reproduces SearchBenchObs exactly.
func SearchBenchObsSeed(n int, seed uint64) (policy.Config, policy.Observation) {
	cfg := policy.Config{
		NCores:     n,
		CoreLadder: freq.DefaultCoreLadder(),
		MemLadder:  freq.DefaultMemLadder(),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(n),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
	}
	obs := policy.Observation{
		Window:    300e-6,
		CoreSteps: policy.ZeroSteps(n),
		Cores:     make([]policy.CoreObs, n),
		MemRate:   2e8, MemLatency: 60e-9, UtilBus: 0.3, BusyFrac: 0.6,
	}
	rng := trace.NewRand(seed)
	for i := range obs.Cores {
		beta := 0.0005 + rng.Float64()*0.01
		obs.Cores[i] = policy.CoreObs{
			Instructions: 1_000_000,
			Stats: perf.CoreStats{CPIBase: 1.1 + rng.Float64()*0.4, Alpha: 0.01,
				StallL2: 7.5e-9, Beta: beta, MemPerInstr: beta * 1.4, MLP: 1},
			L2PerInstr: 0.01,
			Mix:        trace.InstrMix{ALU: 0.3, FPU: 0.2, Branch: 0.1, LoadStore: 0.3},
			IPS:        2.5e9,
		}
	}
	return cfg, obs
}

// The headline benchmark bodies below and in fastcap.go are each defined
// once: the root package's BenchmarkX and cmd/coscale-bench's row X both
// run BenchX.

// BenchSearch16Cores through BenchSearch1024Cores time one §3.1 search
// on SearchBenchObs(n). The paper measures <5 µs at 16 cores and projects
// 83/360 µs at 64/128 cores.
func BenchSearch16Cores(b *testing.B)   { benchSearch(b, 16) }
func BenchSearch64Cores(b *testing.B)   { benchSearch(b, 64) }
func BenchSearch128Cores(b *testing.B)  { benchSearch(b, 128) }
func BenchSearch256Cores(b *testing.B)  { benchSearch(b, 256) }
func BenchSearch512Cores(b *testing.B)  { benchSearch(b, 512) }
func BenchSearch1024Cores(b *testing.B) { benchSearch(b, 1024) }

// benchSearch times Decide on SearchBenchObs(n) after one untimed Decide,
// which sizes the first-call scratch. It reports the last search's committed moves,
// ns/move and per-core marginal evaluations: the walk takes more moves at
// higher core counts, so ns/op alone conflates walk length with per-move
// cost, and ns/move is the sub-linear-scaling figure of merit (DESIGN.md
// §10).
func benchSearch(b *testing.B, n int) {
	cfg, obs := SearchBenchObs(n)
	cs, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cs.Decide(obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Decide(obs)
	}
	b.StopTimer()
	st := cs.SearchStats()
	if st.Moves > 0 {
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(st.Moves), "moves")
		b.ReportMetric(perOp/float64(st.Moves), "ns/move")
	}
	b.ReportMetric(float64(st.CoreEvals), "evals")
}

// BenchControlOp1024 times one op of the load generator's control-1024
// workload: Observe of the epoch the previous decision predicts, then
// Decide, on a 1024-core CoScale cycling through SearchBenchObsSeed(1024,
// 1..16). The epoch prediction (each core retiring the instructions its
// predicted TPI allows in one epoch) runs outside the timer, after one
// untimed op that sizes the first-call scratch.
func BenchControlOp1024(b *testing.B) {
	const n, nObs = 1024, 16
	var cfg policy.Config
	obs := make([]policy.Observation, nObs)
	for i := range obs {
		cfg, obs[i] = SearchBenchObsSeed(n, uint64(i+1))
	}
	cs, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var (
		ev    policy.Evaluator
		e     policy.Eval
		epoch policy.Observation
	)
	predict := func(o policy.Observation, d policy.Decision) {
		ev.Reset(cfg, o)
		ev.EvaluateInto(&e, d.CoreSteps, d.MemStep)
		o.CloneInto(&epoch)
		epoch.Window = cfg.EpochLen.Seconds()
		epoch.CoreSteps = append(epoch.CoreSteps[:0], d.CoreSteps...)
		epoch.MemStep = d.MemStep
		for i := range epoch.Cores {
			epoch.Cores[i].Instructions = uint64(epoch.Window / e.TPI[i])
			epoch.Cores[i].IPS = 1 / e.TPI[i]
		}
	}
	predict(obs[0], cs.Decide(obs[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		o := obs[i%nObs]
		cs.Observe(epoch)
		d := cs.Decide(o)
		b.StopTimer()
		predict(o, d)
		b.StartTimer()
	}
}

// BenchSlackObserve1024 times SlackBook.Observe, the end-of-epoch slack
// accounting of every slack-keeping controller, on SearchBenchObsSeed(1024,
// 1), after one untimed Observe that sizes the book's scratch.
func BenchSlackObserve1024(b *testing.B) {
	cfg, obs := SearchBenchObsSeed(1024, 1)
	book := policy.NewSlackBook(cfg)
	book.Observe(obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		book.Observe(obs)
	}
}

// BenchOfflineDecide times one decision of the Offline comparison policy
// (§3.2) on SearchBenchObs(16) after one untimed Decide that sizes its
// scratch: a sweep over every memory step with the per-core candidate
// search behind the CPU-side baselines (DESIGN.md §4).
func BenchOfflineDecide(b *testing.B) {
	cfg, obs := SearchBenchObs(16)
	p, err := policy.NewOffline(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p.Decide(obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Decide(obs)
	}
}

// OfflineCell is one recorded Offline cell: the Decide (oracle) and
// Observe observations the simulation engine fed Offline on one mix at one
// bound, in order.
type OfflineCell struct {
	Mix    string
	Cfg    policy.Config
	Events []OfflineEvent
}

// OfflineEvent is one call the engine made: Decide when Decide is set,
// Observe otherwise.
type OfflineEvent struct {
	Decide bool
	Obs    policy.Observation
}

// offlineRecorder is Offline with every observation it is fed recorded.
type offlineRecorder struct {
	*policy.Offline
	cell *OfflineCell
}

func (r offlineRecorder) Decide(obs policy.Observation) policy.Decision {
	r.cell.Events = append(r.cell.Events, OfflineEvent{Decide: true, Obs: obs.Clone()})
	return r.Offline.Decide(obs)
}

func (r offlineRecorder) Observe(obs policy.Observation) {
	r.cell.Events = append(r.cell.Events, OfflineEvent{Obs: obs.Clone()})
	r.Offline.Observe(obs)
}

// RecordOfflineTraffic simulates Offline on every Table 1 mix at the
// bounds 5%, 10% and 15% with budget instructions per application, and
// returns each cell's recorded calls, mix-major.
func RecordOfflineTraffic(budget uint64) ([]OfflineCell, error) {
	var cells []OfflineCell
	for _, name := range workload.Names() {
		mix, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		for _, gamma := range []float64{0.05, 0.10, 0.15} {
			sc := sim.Config{Mix: mix, InstrBudget: budget, Gamma: gamma}
			cell := &OfflineCell{Mix: name, Cfg: sc.PolicyConfig()}
			p, err := policy.NewOffline(cell.Cfg)
			if err != nil {
				return nil, err
			}
			sc.Policy = offlineRecorder{p, cell}
			eng, err := sim.New(sc)
			if err != nil {
				return nil, err
			}
			if _, err := eng.Run(); err != nil {
				return nil, err
			}
			cells = append(cells, *cell)
		}
	}
	return cells, nil
}

// offlineTraffic is the served traffic BenchOfflineTraffic replays: every
// Offline cell at the paper's 100M instructions per application, the
// budget coscale-serve simulates by default. Recorded once per process.
var offlineTraffic = sync.OnceValues(func() ([]OfflineCell, error) {
	return RecordOfflineTraffic(100_000_000)
})

// BenchOfflineTraffic times Offline (§3.2) on the traffic it serves: one op
// replays every recorded cell's Decide/Observe sequence, the 16 mixes × 3
// bounds, each on a Reset Offline. Unlike BenchOfflineDecide's one
// observation, this traffic has sweeps that find nothing feasible (DESIGN.md
// §4); it reports the op's sweeps, infeasible sweeps and skipped
// verifications, which are the same for every op.
func BenchOfflineTraffic(b *testing.B) {
	cells, err := offlineTraffic()
	if err != nil {
		b.Fatal(err)
	}
	ps := make([]*policy.Offline, len(cells)) // sized by an untimed pass
	for i, c := range cells {
		if ps[i], err = policy.NewOffline(c.Cfg); err != nil {
			b.Fatal(err)
		}
	}
	replay := func() (sum policy.OfflineStats) {
		for i, p := range ps {
			p.Reset()
			for _, e := range cells[i].Events {
				if e.Decide {
					p.Decide(e.Obs)
				} else {
					p.Observe(e.Obs)
				}
			}
			st := p.Stats()
			sum.Sweeps += st.Sweeps
			sum.Infeasible += st.Infeasible
			sum.Repeats += st.Repeats
		}
		return sum
	}
	replay()
	var st policy.OfflineStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = replay()
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Sweeps), "sweeps/op")
	b.ReportMetric(float64(st.Infeasible), "infeasible/op")
	b.ReportMetric(float64(st.Repeats), "skipped/op")
}

// epochBenchBudget is BenchEpochSimulation's per-application instruction
// budget.
const epochBenchBudget = 50_000_000

// BenchEpochSimulation measures raw fast-backend throughput on MID1 under
// CoScale in steady state: the engine and controller are built once and
// rewound per iteration (both Resets are bit-identity-preserving), so the
// number is simulation throughput rather than per-run construction — trace
// parsing, ladder building and scratch growth all happen before the timer
// starts.
func BenchEpochSimulation(b *testing.B) {
	mix, err := workload.Get("MID1")
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.Config{Mix: mix, InstrBudget: epochBenchBudget}
	cs, err := core.New(sc.PolicyConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc.Policy = cs
	eng, err := sim.New(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		cs.Reset()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
