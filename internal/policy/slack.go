package policy

import "coscale/internal/perf"

// SlackBook is the one implementation of the paper's slack rule (§3
// "Overall operation"): after each epoch it estimates how long the
// committed instructions would have taken with every core and the memory at
// maximum frequency, and the next epoch's per-core slowdown limits follow
// from the slack accumulated against that reference. CoScale, PowerCap and
// every slack-keeping comparison policy take their limits from Limits and
// record their epochs through Observe.
//
// Slack is keyed by *software thread* rather than core (§3.3: "To deal with
// context switching, CoScale can maintain the performance slack
// independently for each software thread"). When the OS migrates a thread,
// its slack follows it; controllers pass the thread currently on each core
// via Observation.ThreadIDs.
//
// The Uncoordinated policy deliberately keeps no slack (see
// uncoordinated.go). Limits and Observe allocate nothing in steady state.
type SlackBook struct {
	cfg      Config
	byThread map[int]*perf.Slack

	allMax allMax    // all-max TPI of each finished epoch
	ids    []int     // identity thread mapping, for observations without ThreadIDs
	lim    []float64 // Limits' result: slack, then limits in place
}

// NewSlackBook creates an empty book for cfg's bound (Gamma), reserve and
// shared tables. Threads are created on first reference.
func NewSlackBook(cfg Config) *SlackBook {
	return &SlackBook{
		cfg:      cfg,
		byThread: make(map[int]*perf.Slack, cfg.NCores),
	}
}

// Reset forgets every thread's accumulated slack, returning the book to its
// freshly constructed state: a zeroed tracker is what Thread creates.
// Benchmarks and repeated bit-identical runs use it to rewind a controller
// without reallocating its bookkeeping.
func (b *SlackBook) Reset() {
	//lint:ignore determinism order-independent: every tracker is zeroed
	for _, s := range b.byThread {
		s.Reset()
	}
}

// Thread returns (creating if needed) the tracker for one software thread.
func (b *SlackBook) Thread(id int) *perf.Slack {
	s, ok := b.byThread[id]
	if !ok {
		s = perf.NewSlack(b.cfg.Gamma)
		b.byThread[id] = s
	}
	return s
}

// threads returns the thread scheduled on each core of obs: its ThreadIDs,
// or the identity mapping without allocating per call.
//
//hot:path
func (b *SlackBook) threads(obs Observation) []int {
	if obs.ThreadIDs != nil {
		return obs.ThreadIDs
	}
	for i := len(b.ids); i < len(obs.Cores); i++ {
		b.ids = append(b.ids, i) //hot:alloc-ok capacity miss: grows once to the core count
	}
	return b.ids[:len(obs.Cores)]
}

// AvailableFor returns accumulated slack in seconds for the threads
// currently scheduled on each core (threads[i] = thread on core i).
func (b *SlackBook) AvailableFor(threads []int) []float64 {
	return b.AvailableInto(nil, threads)
}

// AvailableInto is AvailableFor writing into dst, reusing dst's backing
// array when its capacity suffices.
//
//hot:path
func (b *SlackBook) AvailableInto(dst []float64, threads []int) []float64 {
	if cap(dst) < len(threads) {
		dst = make([]float64, len(threads)) //hot:alloc-ok capacity miss: runs once until the caller's scratch is warm
	}
	dst = dst[:len(threads)]
	for i, id := range threads {
		dst[i] = b.Thread(id).Available()
	}
	return dst
}

// Limits returns the per-core slowdown limits for the epoch obs profiles:
// the slack of the thread on each core, less the reserve, converted by
// Config.LimitsInto. The result aliases the book's scratch and is valid
// until the next call.
//
//hot:path
func (b *SlackBook) Limits(obs Observation) []float64 {
	b.lim = b.AvailableInto(b.lim, b.threads(obs))
	b.lim = b.cfg.LimitsInto(b.lim, b.lim)
	return b.lim
}

// Observe accounts one finished epoch: each scheduled thread is credited
// the time its core's committed instructions would have taken at the
// all-max point (Instructions × epoch's all-max TPI) and charged the
// epoch's wall time plus the configured Reserve, which persistently
// withholds headroom for transition dead time and model drift so the
// measured bound is never grazed.
//
//hot:path
func (b *SlackBook) Observe(epoch Observation) {
	base := b.allMax.TPI(&b.cfg, epoch)
	for i, id := range b.threads(epoch) {
		b.Thread(id).Record(float64(epoch.Cores[i].Instructions)*base[i], epoch.Window+b.cfg.Reserve)
	}
}

// allMax solves an observation's all-max operating point, every core and
// the memory at step 0, on a StepTable that holds only the step-0 column:
// the solve of Evaluator.Reset's baseline without the other columns, the
// CoreTable or the power pass, so its TPIs equal Evaluator.BaselineTPI()
// bit for bit. The zero value is ready for use.
type allMax struct {
	plat   platformRef
	stats  []perf.CoreStats
	tbl    perf.StepTable
	solver perf.Solver
	res    perf.Result
	zeros  []int
}

// TPI returns obs's all-max TPI per core under cfg's platform. The result
// aliases the solver's scratch and is valid until the next call.
//
//hot:path
func (a *allMax) TPI(cfg *Config, obs Observation) []float64 {
	n := len(obs.Cores)
	a.stats = perf.Grow(a.stats, n)
	for i := range obs.Cores {
		a.stats[i] = obs.Cores[i].Stats
	}
	plat := a.plat.get(cfg)
	a.tbl.Reset(a.stats, plat.CoreHz[:1])
	a.zeros = perf.Resize(a.zeros, n)
	a.solver = predictSolver()
	a.solver.SolveTable(&a.res, &a.tbl, a.zeros, plat.Models.At(0))
	return a.res.TPI
}

// identity returns [0, 1, ..., n).
func identity(n int) []int {
	//hot:alloc-ok result escapes: callers keep the returned mapping
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ZeroSteps returns an all-zero (maximum frequency) step vector of length n.
//
//lint:ignore hotprop result escapes: callers keep the returned step vector
func ZeroSteps(n int) []int { return make([]int, n) }
