// Fleet power-capping study (DESIGN.md §13): a global power budget split
// across N simulated 16-core nodes by the internal/fastcap allocator, under
// a datacenter cap-event trace — steady 100% of provisioned power, a step
// down to 80%, and a transient 60% dip. Fair max-min water-filling is
// compared against greedy watts-per-slowdown spending and a uniform static
// split on total energy, worst-node slowdown, slowdown spread, and Jain's
// fairness index.

package experiments

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"coscale/internal/cache"
	"coscale/internal/core"
	"coscale/internal/fastcap"
	"coscale/internal/freq"
	"coscale/internal/memsys"
	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// FastCapSeed fixes the study's phase offsets and drift rates; the whole
// study is a pure function of (seed, nodes, epochs).
const FastCapSeed = 0xFA57CA9C05CA1E

// fastCapMixes is the rotation node workloads are drawn from: one mix per
// paper class so the fleet always holds heterogeneous demand (a MEM-heavy
// node has far more to gain per watt than an ILP one — the allocation
// problem the study exists to exercise).
var fastCapMixes = []string{"MEM1", "MID1", "ILP1", "MIX1", "MEM2", "MID2", "ILP2", "MIX2"}

// FastCapRow is one (strategy, budget segment) cell of the study.
type FastCapRow struct {
	Strategy  string  // fair | greedy | uniform
	Segment   string  // steady (100%) | cut (80%) | dip (60%)
	Epochs    int     // epochs in this segment
	EnergyJ   float64 // total fleet energy over the segment
	WorstSlow float64 // mean over epochs of the worst node's slowdown
	Spread    float64 // mean over epochs of max−min node slowdown
	Jain      float64 // mean over epochs of Jain's index over node speeds
	Clamped   int     // node-epochs clamped to the all-min floor
}

// fastCapSegment labels epoch e of the budget trace and returns the budget
// as a fraction of the fleet's provisioned (all-max) power: the first third
// runs uncapped, then a step down to 80%, with a transient dip to 60% for
// epochs/6 epochs starting at the final third.
func fastCapSegment(e, epochs int) (string, float64) {
	third := epochs / 3
	dipStart := 2 * third
	dipLen := epochs / 6
	switch {
	case e < third:
		return "steady", 1.0
	case e >= dipStart && e < dipStart+dipLen:
		return "dip", 0.6
	default:
		return "cut", 0.8
	}
}

// fastCapNodeCfg is the per-node platform: the paper's 16-core defaults,
// sharing one table cache so the whole fleet reuses one platform-column
// build per process.
func fastCapNodeCfg(nCores int, tables *policy.TableCache) policy.Config {
	return policy.Config{
		NCores:     nCores,
		CoreLadder: freq.DefaultCoreLadder(),
		MemLadder:  freq.DefaultMemLadder(),
		Mem:        memsys.DefaultParams(),
		Power:      power.DefaultSystem(nCores),
		Gamma:      0.10,
		EpochLen:   5 * time.Millisecond,
		Tables:     tables,
	}
}

// fastCapObs synthesizes one node's epoch observation: every core samples
// its application profile at the node's current phase fraction, the shared
// LLC splits capacity by access weight, and the queueing solver at maximum
// frequencies provides the counter values a real profiling epoch would
// deliver.
func fastCapObs(cfg policy.Config, mix workload.Mix, llc *cache.ShareModel, sv *perf.Solver, frac float64) (policy.Observation, error) {
	n := cfg.NCores
	weights := make([]float64, n)
	stats := make([]perf.CoreStats, n)
	for i := 0; i < n; i++ {
		p, err := mix.AppForCore(i)
		if err != nil {
			return policy.Observation{}, err
		}
		weights[i] = p.At(frac).L2APKI
	}
	shares := llc.Shares(weights)
	for i := 0; i < n; i++ {
		p, err := mix.AppForCore(i)
		if err != nil {
			return policy.Observation{}, err
		}
		s := p.At(frac)
		mpki := p.MPKIAt(frac, shares[i])
		wb := mpki * s.DirtyFrac
		stats[i] = perf.CoreStats{
			CPIBase:     s.CPIBase,
			Alpha:       s.L2APKI / 1000,
			StallL2:     cache.DefaultHitTime,
			Beta:        mpki / 1000,
			MemPerInstr: (mpki + wb) / 1000,
			MLP:         s.MLP,
		}
	}
	hz := make([]float64, n)
	for i := range hz {
		hz[i] = cfg.CoreLadder.MaxHz()
	}
	res := sv.Solve(stats, hz, cfg.MemLadder.MaxHz())
	obs := policy.Observation{
		Window:     cfg.EpochLen.Seconds(),
		CoreSteps:  policy.ZeroSteps(n),
		Cores:      make([]policy.CoreObs, n),
		MemRate:    res.MemRate,
		MemLatency: res.Mem.Latency,
		UtilBus:    res.Mem.UtilBus,
		BusyFrac:   math.Min(1, res.Mem.UtilBank*8),
	}
	for i := 0; i < n; i++ {
		p, err := mix.AppForCore(i)
		if err != nil {
			return policy.Observation{}, err
		}
		obs.Cores[i] = policy.CoreObs{
			Instructions: uint64(obs.Window / res.TPI[i]),
			Stats:        stats[i],
			L2PerInstr:   stats[i].Alpha,
			Mix:          p.At(frac).Mix,
			IPS:          1 / res.TPI[i],
		}
	}
	return obs, nil
}

// unit maps a 64-bit hash to [0,1).
func fastCapUnit(x uint64) float64 {
	return float64(x>>11) / float64(1<<53)
}

// FastCap runs the fleet capping study over the given fleet size and epoch
// count (0 selects the committed defaults: 6 nodes, 36 epochs). The three
// strategies replay identical observations and budget traces, so every
// difference between rows is the allocator's doing. Deterministic: same
// (nodes, epochs) ⇒ bit-identical rows.
func (r *Runner) FastCap(nodes, epochs int) ([]FastCapRow, error) {
	if nodes == 0 {
		nodes = 6
	}
	if epochs == 0 {
		epochs = 36
	}
	if nodes < 1 || epochs < 6 {
		return nil, fmt.Errorf("experiments: fastcap needs ≥1 node and ≥6 epochs, got %d/%d", nodes, epochs)
	}

	cfg, obs, provisioned, err := fastCapFleet(r.Tables(), nodes, epochs)
	if err != nil {
		return nil, err
	}

	strategies := []fastcap.Strategy{fastcap.Fair, fastcap.Greedy, fastcap.Uniform}
	segments := []string{"steady", "cut", "dip"}
	rows := make([]FastCapRow, len(strategies)*len(segments))
	epochSec := cfg.EpochLen.Seconds()

	err = r.forEach(len(strategies), func(si int) error {
		reb := fastcap.NewRebalancer(strategies[si])
		for n := 0; n < nodes; n++ {
			if err := reb.AddNode(fmt.Sprintf("node-%02d", n), cfg); err != nil {
				return err
			}
		}
		acc := make(map[string]*FastCapRow, len(segments))
		for k, seg := range segments {
			rows[si*len(segments)+k] = FastCapRow{Strategy: strategies[si].String(), Segment: seg}
			acc[seg] = &rows[si*len(segments)+k]
		}
		var eps []fastcap.NodeEpoch
		speeds := make([]float64, nodes)
		for e := 0; e < epochs; e++ {
			seg, fracBudget := fastCapSegment(e, epochs)
			var err error
			eps, err = reb.Epoch(provisioned*fracBudget, obs[e], eps[:0])
			if err != nil {
				return err
			}
			worst, best, energy := math.Inf(-1), math.Inf(1), 0.0
			clamped := 0
			for i, ne := range eps {
				if ne.MaxSlow > worst {
					worst = ne.MaxSlow
				}
				if ne.MaxSlow < best {
					best = ne.MaxSlow
				}
				energy += ne.Power * epochSec
				speeds[i] = 1 / ne.MaxSlow
				if ne.Clamped {
					clamped++
				}
			}
			row := acc[seg]
			row.Epochs++
			row.EnergyJ += energy
			row.WorstSlow += worst
			row.Spread += worst - best
			row.Jain += fastcap.JainIndex(speeds)
			row.Clamped += clamped
		}
		for _, seg := range segments {
			if acc[seg].Epochs > 0 {
				acc[seg].WorstSlow /= float64(acc[seg].Epochs)
				acc[seg].Spread /= float64(acc[seg].Epochs)
				acc[seg].Jain /= float64(acc[seg].Epochs)
			}
		}
		return nil
	})
	return rows, err
}

// fastCapFleet builds the study's inputs for a nodes-node fleet: the
// per-node platform, every epoch's per-node observations (precomputed once
// and shared read-only, so every consumer sees identical inputs) and the
// provisioned power — the fleet running all-max at epoch 0.
func fastCapFleet(tables *policy.TableCache, nodes, epochs int) (policy.Config, [][]policy.Observation, float64, error) {
	// Per-node workload mixes and phase trajectories.
	nodeMixes := make([]workload.Mix, nodes)
	start := make([]float64, nodes)
	rate := make([]float64, nodes)
	var cfg policy.Config
	for n := 0; n < nodes; n++ {
		m, err := workload.Get(fastCapMixes[n%len(fastCapMixes)])
		if err != nil {
			return cfg, nil, 0, err
		}
		nodeMixes[n] = m
		if n == 0 {
			cfg = fastCapNodeCfg(m.Cores(), tables)
		} else if m.Cores() != cfg.NCores {
			return cfg, nil, 0, fmt.Errorf("experiments: mix %s has %d cores, fleet needs %d", m.Name, m.Cores(), cfg.NCores)
		}
		start[n] = fastCapUnit(trace.Mix64(FastCapSeed ^ uint64(n)<<1))
		rate[n] = 0.02 + 0.04*fastCapUnit(trace.Mix64(FastCapSeed^uint64(n)<<1^1))
	}

	llc := cache.NewShareModel(cache.DefaultSizeMB)
	sv := perf.NewSolver(cfg.Mem)
	obs := make([][]policy.Observation, epochs)
	for e := 0; e < epochs; e++ {
		obs[e] = make([]policy.Observation, nodes)
		for n := 0; n < nodes; n++ {
			frac := math.Mod(start[n]+rate[n]*float64(e), 1)
			o, err := fastCapObs(cfg, nodeMixes[n], llc, sv, frac)
			if err != nil {
				return cfg, nil, 0, err
			}
			obs[e][n] = o
		}
	}

	provisioned := 0.0
	for n := 0; n < nodes; n++ {
		provisioned += policy.NewEvaluator(cfg, obs[0][n]).Baseline().Power.Total
	}
	return cfg, obs, provisioned, nil
}

// FastCapBench is the input of the PowerCapDecide, PowerCapRedecide,
// FrontierBuild and RebalancerEpoch benchmarks: the fastcap study's per-node platform (all nodes sharing one
// table cache), two per-node observation sets and the fleet's provisioned
// (all-max) power. Obs is the study's first epoch. Later differs from Obs
// bit for bit on every node, so a rebalancer fed Obs and Later in turn
// rebuilds every frontier each epoch.
type FastCapBench struct {
	Cfg         policy.Config
	Obs         []policy.Observation
	Later       []policy.Observation
	Provisioned float64
}

// fastCapBenchLater is the study epoch Later is drawn from.
const fastCapBenchLater = 24

// FastCapBenchFleet returns the benchmark input for a nodes-node fleet of
// 16-core nodes.
//
// Later is the study's epoch-24 observations rotated by one node: node n
// takes node n+1's. Some mixes hold a single phase, so a node's own
// trajectory can stay bit-identical forever; every node shares one
// platform, so a neighbour's observation is an equally valid input. It is
// an error for any node's two observations to be bit-equal.
func FastCapBenchFleet(nodes int) (FastCapBench, error) {
	cfg, obs, provisioned, err := fastCapFleet(&policy.TableCache{}, nodes, fastCapBenchLater+1)
	if err != nil {
		return FastCapBench{}, err
	}
	fx := FastCapBench{Cfg: cfg, Obs: obs[0], Later: make([]policy.Observation, nodes), Provisioned: provisioned}
	for n := range fx.Later {
		fx.Later[n] = obs[fastCapBenchLater][(n+1)%nodes]
		if fx.Later[n].BitEqual(&fx.Obs[n]) {
			return FastCapBench{}, fmt.Errorf("experiments: node %d's benchmark observations are bit-equal", n)
		}
	}
	return fx, nil
}

// fastCapBenchNode returns the one-node fixture of the single-node rows
// and its two observations, Later first, so iterations that alternate
// between them never repeat the previous observation.
func fastCapBenchNode(b *testing.B) (FastCapBench, [2]policy.Observation) {
	fx, err := FastCapBenchFleet(1)
	if err != nil {
		b.Fatal(err)
	}
	return fx, [2]policy.Observation{fx.Later[0], fx.Obs[0]}
}

// benchCounted times b.N calls of op after the body's warm-up and reports
// evals/op, the growth of the walk evaluation counter evals per call.
func benchCounted(b *testing.B, evals func() int64, op func(i int) error) {
	b.ReportAllocs()
	b.ResetTimer()
	e0 := evals()
	for i := 0; i < b.N; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(evals()-e0)/float64(b.N), "evals/op")
}

// BenchPowerCapDecide measures one cold capped decision: a 16-core node of
// the fastcap study under a cap at 80% of its all-max power, on a warm
// controller (the steady state the zero-alloc gate pins). Iterations
// alternate between the node's two observations, so each decision walks
// afresh rather than replaying the previous one's trail.
func BenchPowerCapDecide(b *testing.B) {
	fx, obs := fastCapBenchNode(b)
	pc, err := core.NewPowerCap(fx.Cfg, 0.8*fx.Provisioned)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range obs {
		if _, err := pc.DecideCapped(o); err != nil {
			b.Fatal(err)
		}
	}
	benchCounted(b, pc.Evals, func(i int) error {
		_, err := pc.DecideCapped(obs[i%2])
		return err
	})
}

// BenchPowerCapRedecide measures a capped decision whose observation
// repeats under a moving cap, as a node's does when the fleet reallocates
// around it: one observation, caps alternating between 60% and 80% of the
// node's all-max power, so each decision replays the trail the warm-up
// walked.
func BenchPowerCapRedecide(b *testing.B) {
	fx, obs := fastCapBenchNode(b)
	pc, err := core.NewPowerCap(fx.Cfg, fx.Provisioned)
	if err != nil {
		b.Fatal(err)
	}
	caps := [2]float64{0.6 * fx.Provisioned, 0.8 * fx.Provisioned}
	decide := func(i int) error {
		if err := pc.SetCap(caps[i%2]); err != nil {
			return err
		}
		_, err := pc.DecideCapped(obs[1])
		return err
	}
	for i := range caps {
		if err := decide(i); err != nil {
			b.Fatal(err)
		}
	}
	benchCounted(b, pc.Evals, decide)
}

// BenchFrontierBuild measures one cold frontier build of a 16-core node of
// the fastcap study, alternating between the node's two observations on a
// warm Builder.
func BenchFrontierBuild(b *testing.B) {
	fx, obs := fastCapBenchNode(b)
	var bld fastcap.Builder
	var f fastcap.Frontier
	for _, o := range obs {
		if err := bld.Build(&f, fx.Cfg, o); err != nil {
			b.Fatal(err)
		}
	}
	benchCounted(b, bld.Evals, func(i int) error { return bld.Build(&f, fx.Cfg, obs[i%2]) })
}

// BenchRebalancerEpoch measures one cold fleet rebalancing epoch: eight
// 16-core nodes of the fastcap study under a budget at 80% of provisioned
// power — eight frontier builds, the fair allocation and eight capped
// decisions, fanned out across min(GOMAXPROCS, 8) lanes. Iterations
// alternate between the fixture's two observation sets, which differ on
// every node, so no node can keep its frontier.
func BenchRebalancerEpoch(b *testing.B) {
	benchRebalancerEpoch(b, func(fx FastCapBench) [2][]policy.Observation {
		return [2][]policy.Observation{fx.Later, fx.Obs}
	}, [2]float64{0.8, 0.8})
}

// BenchRebalancerEpochStable measures the same fleet epoch while every node
// holds its phase and the budget holds: each node keeps its frontier and its
// capped decision, so the epoch is the observation compares plus the
// allocation.
func BenchRebalancerEpochStable(b *testing.B) {
	benchRebalancerEpoch(b, func(fx FastCapBench) [2][]policy.Observation {
		return [2][]policy.Observation{fx.Obs, fx.Obs}
	}, [2]float64{0.8, 0.8})
}

// BenchRebalancerEpochLone measures the same fleet epoch when one node is
// re-profiled: node 0 alternates between its two observations while the
// other seven hold theirs, and the budget alternates between 60% and 80%
// of provisioned power. Each epoch rebuilds one frontier, reallocates and
// re-decides every node under its moved assignment; the seven held nodes
// replay their walks.
func BenchRebalancerEpochLone(b *testing.B) {
	benchRebalancerEpoch(b, func(fx FastCapBench) [2][]policy.Observation {
		lone := append([]policy.Observation(nil), fx.Obs...)
		lone[0] = fx.Later[0]
		return [2][]policy.Observation{lone, fx.Obs}
	}, [2]float64{0.6, 0.8})
}

// warmGoroutines starts and joins 128 goroutines, once per process. Until
// a process has started about that many, starting one can allocate its
// descriptor (runtime.malg): a goroutine's descriptor returns to the free
// list of the P it exited on, which reaches the spawning P's list only
// once that list overflows. The rebalancer starts up to GOMAXPROCS-1 lanes
// per phase, so in a short run those allocations would read as the
// epoch's own.
var warmGoroutines = sync.OnceFunc(func() {
	var wg sync.WaitGroup
	wg.Add(128)
	for range 128 {
		go wg.Done()
	}
	wg.Wait()
})

// benchRebalancerEpoch times epochs that alternate between the two
// observation sets sets returns, each under its share frac of the fleet's
// provisioned power. The warm-up runs the second set, the first and the
// second again, so every scratch array has grown for both.
func benchRebalancerEpoch(b *testing.B, sets func(FastCapBench) [2][]policy.Observation, frac [2]float64) {
	warmGoroutines()
	fx, err := FastCapBenchFleet(8)
	if err != nil {
		b.Fatal(err)
	}
	r := fastcap.NewRebalancer(fastcap.Fair)
	for n := range fx.Obs {
		if err := r.AddNode(fmt.Sprintf("node-%02d", n), fx.Cfg); err != nil {
			b.Fatal(err)
		}
	}
	obs := sets(fx)
	var eps []fastcap.NodeEpoch
	epoch := func(i int) error {
		eps, err = r.Epoch(frac[i%2]*fx.Provisioned, obs[i%2], eps[:0])
		return err
	}
	for _, i := range [...]int{1, 0, 1} {
		if err := epoch(i); err != nil {
			b.Fatal(err)
		}
	}
	benchCounted(b, r.Evals, epoch)
}

// FormatFastCap renders the fleet capping study as a strategy × segment
// table.
func FormatFastCap(rows []FastCapRow) string {
	s := "Fleet power capping: fair water-filling vs greedy vs uniform split\n"
	s += fmt.Sprintf("%-8s %-7s %7s %10s %11s %8s %7s %8s\n",
		"strategy", "segment", "epochs", "energy-J", "worst-slow", "spread", "jain", "clamped")
	for _, r := range rows {
		s += fmt.Sprintf("%-8s %-7s %7d %10.4f %11.4f %8.4f %7.4f %8d\n",
			r.Strategy, r.Segment, r.Epochs, r.EnergyJ, r.WorstSlow, r.Spread, r.Jain, r.Clamped)
	}
	return s
}
