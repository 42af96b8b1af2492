// Package core implements CoScale, the paper's contribution: a greedy
// gradient-descent search over per-core and memory-subsystem frequency
// settings that minimizes full-system energy (SER, Eq. 2) while keeping
// every program inside its accumulated performance slack.
//
// The search is the algorithm of Figure 2. Starting with every component at
// maximum frequency, it repeatedly estimates the marginal utility
// (Δpower/Δperformance) of lowering either the memory subsystem or a group
// of cores by one step and greedily takes the most beneficial move, as long
// as some move keeps every program within its slack. Core groups are formed
// by the sub-algorithm of Figure 3: cores eligible for scaling are kept in a
// list sorted ascending by the performance cost of their next step, and the
// N prefixes of that list are the candidate groups. Group moves are what
// keep the search out of the local minimum where memory frequency — whose
// first step usually beats scaling any single core — is always taken first.
//
// Marginal utilities are cached exactly as in Figure 2: the memory marginal
// is recomputed only when the memory frequency changed, and core marginals
// only for cores whose frequency changed, giving the paper's
// O(M + C·N²) complexity instead of the brute-force M·C^N.
package core

import (
	"math"
	"slices"

	"coscale/internal/perf"
	"coscale/internal/policy"
	"coscale/internal/power"
)

// Options tune CoScale variants used by the ablation studies.
type Options struct {
	// DisableGrouping restricts core moves to single cores (group size
	// 1), demonstrating the local-minimum pathology §3.1 warns about.
	DisableGrouping bool
	// DisableMarginalCache recomputes every marginal on every iteration,
	// for measuring the value of the Figure 2 caching.
	DisableMarginalCache bool
}

// SearchStats counts the work of the most recent Decide call's search walk,
// for benchmarks and telemetry. Moves is the number of committed frequency
// moves (iterations that applied a core-group or memory step); Evals is the
// number of full joint-model evaluations the walk ran (one per candidate
// memory marginal and one per committed group move). Per-move cost —
// ns/op divided by Moves — is the scaling figure of merit: the number of
// moves grows with the core count, so total Decide time conflates walk
// length with per-step cost (DESIGN.md §10). CoreEvals is the number of
// per-core local marginal evaluations the eligibility scans ran (rebuild +
// repair, bottom-step cores excluded).
type SearchStats struct {
	Moves     int
	Evals     int
	CoreEvals int
}

// SearchStats returns counters for the last Decide call's search.
func (c *CoScale) SearchStats() SearchStats { return c.stats }

// CoScale is the coordinated CPU+memory DVFS controller.
//
// A controller owns its decision-time scratch — evaluators, search state,
// slack/limit arrays — so Decide and Observe allocate nothing in steady
// state (DESIGN.md §7). The Decision returned by Decide aliases that
// scratch and is valid until the next Decide call.
type CoScale struct {
	cfg   policy.Config
	opts  Options
	slack *policy.SlackBook

	// Steady-state scratch reused every epoch.
	ev     *policy.Evaluator // Decide-time evaluator, reset per call
	st     searchState
	scaled []float64   // slowdown limits with the WithinBound epsilon pre-applied
	best   []int       // best step vector found by the walk
	fresh  []coreMarg  // repairCoreList scratch: moved cores' new marginals
	merged []coreMarg  // repairCoreList merge output, rebuildCoreList sort scratch
	radix  radixCounts // rebuildCoreList's byte histograms
	sc     scanCtx     // walk state the marginal kernel reads, hoisted per scan

	stats SearchStats // work counters for the last Decide's search
}

// New returns a CoScale controller for the given system, or the
// configuration's validation error.
func New(cfg policy.Config) (*CoScale, error) { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a CoScale controller with ablation options, or the
// configuration's validation error.
func NewWithOptions(cfg policy.Config, opts Options) (*CoScale, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NCores
	c := &CoScale{
		cfg:   cfg,
		opts:  opts,
		slack: policy.NewSlackBook(cfg),
		ev:    &policy.Evaluator{},
		st: searchState{
			steps:    make([]int, n),
			coreList: make([]coreMarg, 0, n),
		},
		best:   make([]int, n),
		fresh:  make([]coreMarg, 0, n),
		merged: make([]coreMarg, 0, n),
	}
	return c, nil
}

// Close releases nothing: the search runs on the caller's goroutine and the
// controller holds only memory. It exists for callers that manage
// controllers alongside resources that do need closing.
func (c *CoScale) Close() {}

// Name implements policy.Policy.
func (c *CoScale) Name() string {
	switch {
	case c.opts.DisableGrouping:
		return "CoScale-NoGrouping"
	case c.opts.DisableMarginalCache:
		return "CoScale-NoCache"
	default:
		return "CoScale"
	}
}

// Slack exposes the per-program slack trackers (for tests and telemetry).
func (c *CoScale) Slack() *policy.SlackBook { return c.slack }

// Reset returns the controller to its freshly constructed state — slack
// bookkeeping forgotten — while keeping every
// scratch buffer, so repeated runs over one controller are bit-identical to
// runs over fresh controllers without reallocating (the Engine.Reset
// pattern; benchmarks use it to rewind between iterations).
func (c *CoScale) Reset() {
	c.slack.Reset()
}

// Observe implements policy.Policy: end-of-epoch slack accounting against
// the all-max reference, per §3 "Overall operation" (SlackBook.Observe).
//
//hot:path
func (c *CoScale) Observe(epoch policy.Observation) { c.slack.Observe(epoch) }

// Decide implements policy.Policy: the Figure 2 search. The returned
// Decision aliases the controller's scratch and is valid until the next
// Decide call; retain with Clone.
//
//hot:path
func (c *CoScale) Decide(obs policy.Observation) policy.Decision {
	c.ev.Reset(c.cfg, obs)
	c.scaled = policy.ScaleLimits(c.scaled, c.slack.Limits(obs))
	c.stats = SearchStats{}
	return c.search(c.ev)
}

// searchState carries the walk's mutable state, persisting across decisions
// so its buffers are reused.
type searchState struct {
	steps   []int
	memStep int
	cur     policy.Eval

	// Cached marginals (Figure 2 lines 4-8).
	memValid  bool
	memMarg   marginal
	memEval   policy.Eval // post-move prediction backing the memory marginal
	coreValid bool
	coreList  []coreMarg // eligible cores sorted ascending by dTPI
}

// marginal is a candidate move's cost/benefit. A feasible memory marginal's
// post-move prediction lives in searchState.memEval.
type marginal struct {
	utility  float64 // Δpower / Δperformance
	dPower   float64
	dPerf    float64
	feasible bool
}

// coreMarg is the locally estimated marginal of stepping one core down.
// Kept to 32 bytes — the eligibility list is sorted and merged wholesale
// every group move, so element copies are on the search hot path.
type coreMarg struct {
	core   int32
	pos    int32   // repairCoreList tie-break key (insertion position)
	dTPI   float64 // seconds/instruction added by one step down
	dPerf  float64 // dTPI / baseline TPI (relative slowdown added)
	dPower float64 // watts saved by one step down
}

// search is the full Figure 2 walk from the all-max point: it returns the
// minimum-SER configuration the greedy descent reaches.
//
//hot:path
func (c *CoScale) search(ev *policy.Evaluator) policy.Decision {
	n := c.cfg.NCores
	st := &c.st
	st.steps = perf.Resize(st.steps, n)
	st.memStep = 0
	st.memValid, st.coreValid = false, false
	// The walk starts at the all-max point the evaluator already solved for
	// its baseline; copying it is bit-identical to re-evaluating zeros.
	ev.EvaluateBaselineInto(&st.cur)
	c.best = perf.Resize(c.best, n) // all-max, like st.steps
	bestMem := 0
	bestSER := st.cur.SER

	maxIters := (c.cfg.MemLadder.Steps() + c.cfg.CoreLadder.Steps()*n) + 4
	for iter := 0; iter < maxIters; iter++ {
		if c.opts.DisableMarginalCache {
			st.memValid, st.coreValid = false, false
		}

		// Figure 2 lines 4-5: memory marginal, recomputed only on change.
		if !st.memValid {
			st.memMarg = c.memoryMarginal(ev, st)
			st.memValid = true
		}
		// Figure 2 lines 6-8 / Figure 3: core-group marginal.
		if !st.coreValid {
			c.rebuildCoreList(ev, st)
			st.coreValid = true
		}
		groupLen, groupMarg := c.bestGroup(st)

		memOK := st.memMarg.feasible
		coreOK := groupLen > 0

		switch {
		case memOK && coreOK:
			if st.memMarg.utility >= groupMarg.utility {
				c.applyMemory(st)
			} else {
				c.applyGroup(ev, st, groupLen)
			}
		case memOK:
			c.applyMemory(st)
		case coreOK:
			c.applyGroup(ev, st, groupLen)
		default:
			// Line 2: nothing can scale further.
			iter = maxIters
			continue
		}

		// Joint feasibility backstop: local core estimates are
		// conservative, but re-verify and revert if the joint model
		// disagrees (can happen right after a stale-cache move).
		if !policy.WithinBoundScaled(st.cur, c.scaled) {
			break
		}
		// Line 20: record SER for the configuration just reached.
		if st.cur.SER < bestSER {
			bestSER = st.cur.SER
			copy(c.best, st.steps)
			bestMem = st.memStep
		}
	}
	// Line 21-22: the combination with the smallest SER wins.
	return policy.Decision{CoreSteps: c.best, MemStep: bestMem}
}

// memoryMarginal evaluates one memory step down from the current state
// (full joint model — memory affects every core). The candidate prediction
// is left in st.memEval for applyMemory.
//
//hot:path
func (c *CoScale) memoryMarginal(ev *policy.Evaluator, st *searchState) marginal {
	if c.cfg.MemLadder.Bottom(st.memStep) {
		return marginal{}
	}
	c.stats.Evals++
	ev.EvaluateInto(&st.memEval, st.steps, st.memStep+1)
	if !policy.WithinBoundScaled(st.memEval, c.scaled) {
		return marginal{}
	}
	dPower := st.cur.Power.Total - st.memEval.Power.Total
	// Δperformance: the highest performance loss of any core (§3.1).
	dPerf := 0.0
	for i := range st.memEval.Slowdown {
		if d := st.memEval.Slowdown[i] - st.cur.Slowdown[i]; d > dPerf {
			dPerf = d
		}
	}
	return marginal{utility: Utility(dPower, dPerf), dPower: dPower, dPerf: dPerf,
		feasible: true}
}

// rebuildCoreList recomputes the Figure 3 eligibility list from scratch into
// st.coreList. (Incremental repair after a group move is handled by
// repairCoreList; a full rebuild happens only on the first iteration or with
// caching disabled.) Eligible marginals are appended in core-index order.
//
//hot:path
func (c *CoScale) rebuildCoreList(ev *policy.Evaluator, st *searchState) {
	c.setupScan(ev, st)
	list := st.coreList[:0]
	for i := 0; i < c.cfg.NCores; i++ {
		m, evaluated := c.marginalFor(i, 0)
		if evaluated {
			c.stats.CoreEvals++
		}
		if m.core >= 0 {
			list = append(list, m)
		}
	}
	// The list is in core order, so a stable sort by dTPI alone yields
	// cmpDTPI's order; the scratch buffer swaps in when the result lands
	// there.
	sorted, spare := radixSortDTPI(list, c.merged, &c.radix)
	st.coreList, c.merged = sorted, spare[:0]
}

// cmpDTPI orders core marginals ascending by dTPI, breaking ties on core
// index.
func cmpDTPI(a, b coreMarg) int {
	switch {
	case a.dTPI < b.dTPI:
		return -1
	case b.dTPI < a.dTPI:
		return 1
	default:
		return int(a.core) - int(b.core)
	}
}

// cmpFresh orders a repair's fresh marginals ascending by dTPI, breaking
// ties on insertion position, descending.
//
// cmpDTPI and cmpFresh are strict total orders unless a dTPI is NaN: -0 and
// +0 compare equal and fall to the tie-break, and core indices and insertion
// positions are distinct within one list. A sorted list is therefore the
// same whatever algorithm sorts it, which lets each eligibility sort pick
// the algorithm that suits its input. A NaN key makes the order depend on
// the algorithm, so a list holding one goes to slices.SortFunc untouched.
func cmpFresh(a, b coreMarg) int {
	switch {
	case a.dTPI < b.dTPI:
		return -1
	case a.dTPI > b.dTPI:
		return 1
	default:
		return int(b.pos) - int(a.pos)
	}
}

// hasNaNDTPI reports whether any marginal's dTPI is NaN.
//
//hot:path
func hasNaNDTPI(list []coreMarg) bool {
	for i := range list {
		if math.IsNaN(list[i].dTPI) {
			return true
		}
	}
	return false
}

// insertionSortFresh sorts a repair's fresh marginals into cmpFresh order.
// They arrive nearly sorted — moved cores are re-scored in the order of the
// ascending list they left — so an insertion sort usually finishes in far
// fewer than n·log n steps. Past a budget of 8·n element shifts it hands the
// partly sorted list to slices.SortFunc, which reaches the same order.
//
//hot:path
func insertionSortFresh(s []coreMarg) {
	if hasNaNDTPI(s) {
		slices.SortFunc(s, cmpFresh)
		return
	}
	budget := 8 * len(s)
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i
		for j > 0 && cmpFresh(x, s[j-1]) < 0 {
			s[j] = s[j-1]
			j--
		}
		s[j] = x
		if budget -= i - j; budget < 0 {
			slices.SortFunc(s, cmpFresh)
			return
		}
	}
}

// radixCounts holds one 256-bucket histogram per byte of a radix key.
type radixCounts [8][256]uint32

// radixMinLen is the shortest list radixSortDTPI radix-sorts. Clearing and
// summing its eight histograms is a fixed cost that, on 2 vCPUs, made the
// radix sort slower than slices.SortFunc below about 150 elements.
const radixMinLen = 256

// radixKey maps a non-NaN dTPI to a uint64 whose unsigned order is the
// float order, with -0 folded to +0 so the two tie as they do under <.
func radixKey(d float64) uint64 {
	b := math.Float64bits(d)
	if b == 1<<63 { // -0
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSortDTPI sorts list, which must be in core order, into cmpDTPI
// order: a stable LSD radix sort on radixKey(dTPI), one pass per key byte,
// skipping every byte that is the same in all keys. Stability keeps equal
// keys in core order, which is cmpDTPI's tie-break. It ping-pongs between
// list and scratch and returns the sorted slice and the other buffer for
// reuse. Lists shorter than radixMinLen go to slices.SortFunc instead.
//
//hot:path
func radixSortDTPI(list, scratch []coreMarg, counts *radixCounts) (sorted, spare []coreMarg) {
	n := len(list)
	if n < radixMinLen || hasNaNDTPI(list) {
		slices.SortFunc(list, cmpDTPI)
		return list, scratch
	}
	*counts = radixCounts{}
	for i := range list {
		k := radixKey(list[i].dTPI)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst := list, perf.Grow(scratch, n)
	for b := range counts {
		shift := 8 * uint(b)
		cnt := &counts[b]
		if int(cnt[byte(radixKey(src[0].dTPI)>>shift)]) == n {
			continue // every key has this byte: the pass would not move anything
		}
		off := uint32(0)
		for d, c := range cnt {
			cnt[d] = off
			off += c
		}
		for i := range src {
			d := byte(radixKey(src[i].dTPI) >> shift)
			dst[cnt[d]] = src[i]
			cnt[d]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// scanCtx is the walk state the marginal kernel reads during one scan,
// hoisted once by setupScan.
type scanCtx struct {
	steps    []int     // st.steps (current per-core ladder positions)
	base     []float64 // all-max baseline TPI per core
	lat      float64   // current joint memory latency
	cpuScale float64
	tbl      *perf.StepTable
	ptbl     *power.CoreTable
}

// setupScan hoists the walk state the kernel reads into c.sc. Within one
// scan every hoisted value is constant (the walk mutates st only between
// scans), so hoisting is exact.
//
//hot:path
func (c *CoScale) setupScan(ev *policy.Evaluator, st *searchState) {
	sc := &c.sc
	sc.steps = st.steps
	sc.base = ev.BaselineTPI()
	sc.lat = st.cur.MemLoad.Latency
	cpuScale := c.cfg.Power.CPUScale
	if cpuScale <= 0 {
		cpuScale = 1
	}
	sc.cpuScale = cpuScale
	sc.tbl, sc.ptbl = ev.Tables()
}

// marginalFor is the marginal-scan kernel: it locally estimates the effect
// of stepping core i down once, holding the memory system at the scan's
// modelled latency (c.sc, hoisted by setupScan). An ineligible core returns
// the core = -1 sentinel; the bool reports whether the kernel evaluated the
// core at all (false only at the ladder bottom), which feeds
// SearchStats.CoreEvals.
//
//hot:path
func (c *CoScale) marginalFor(i int, pos int32) (coreMarg, bool) {
	sc := &c.sc
	step := sc.steps[i]
	if c.cfg.CoreLadder.Bottom(step) {
		return coreMarg{core: -1}, false
	}
	// The pair lookup computes the shared latency term once and is
	// bit-identical to direct CoreStats.TPI calls at Hz(step) and
	// Hz(step+1), as the PowerAt lookups below are to CoreModel.Power
	// (DESIGN.md §10; tables_prop_test.go).
	tpiCur, tpiNext := sc.tbl.TPIPairAt(i, step, sc.lat)
	base := sc.base[i]
	slowAfter := tpiNext / base
	if slowAfter > c.scaled[i] {
		return coreMarg{core: -1}, true
	}
	pCur := sc.ptbl.PowerAt(step, i, 1/tpiCur)
	pNext := sc.ptbl.PowerAt(step+1, i, 1/tpiNext)
	dPower := (pCur - pNext) * sc.cpuScale
	return coreMarg{
		core:   int32(i),
		pos:    pos,
		dTPI:   tpiNext - tpiCur,
		dPerf:  (tpiNext - tpiCur) / base,
		dPower: dPower,
	}, true
}

// bestGroup runs Figure 3 lines 3-7: consider the prefixes of the sorted
// eligibility list as groups and return the length of the one with the
// largest marginal utility (0 = no eligible group).
//
//hot:path
func (c *CoScale) bestGroup(st *searchState) (int, marginal) {
	if len(st.coreList) == 0 {
		return 0, marginal{}
	}
	limit := len(st.coreList)
	if c.opts.DisableGrouping {
		limit = 1
	}
	bestU := math.Inf(-1)
	bestI := -1
	sumPower := 0.0
	var bestMarg marginal
	for i := 0; i < limit; i++ {
		sumPower += st.coreList[i].dPower
		dPerf := st.coreList[i].dPerf // worst in group: list is sorted ascending
		u := Utility(sumPower, dPerf)
		if u > bestU {
			bestU, bestI = u, i
			bestMarg = marginal{utility: u, dPower: sumPower, dPerf: dPerf, feasible: true}
		}
	}
	return bestI + 1, bestMarg
}

// applyMemory commits a one-step memory reduction (already evaluated):
// the candidate prediction in st.memEval becomes the current state, and the
// old current Eval's buffers are recycled as the next candidate scratch.
//
//hot:path
func (c *CoScale) applyMemory(st *searchState) {
	c.stats.Moves++
	st.memStep++
	st.cur, st.memEval = st.memEval, st.cur
	st.memValid = false // memory frequency changed: marginal stale
	// Core marginals are deliberately NOT invalidated (Figure 2 line 6
	// recomputes them only when a core frequency changes) — but their
	// latency assumption is refreshed lazily through the joint st.cur.
}

// applyGroup commits a one-step reduction for the first groupLen cores of
// the sorted eligibility list, then repairs the list (Figure 3 lines 1-2).
//
//hot:path
func (c *CoScale) applyGroup(ev *policy.Evaluator, st *searchState, groupLen int) {
	for i := 0; i < groupLen; i++ {
		st.steps[int(st.coreList[i].core)]++
	}
	c.stats.Moves++
	c.stats.Evals++
	ev.EvaluateInto(&st.cur, st.steps, st.memStep)
	st.memValid = false // traffic changed; memory marginal must be re-evaluated
	c.repairCoreList(ev, st, groupLen)
}

// repairCoreList removes the moved cores and re-inserts their fresh
// marginals, keeping the ascending dTPI order without a full sort. The
// moved cores are always the first groupLen entries of the list (groups are
// prefixes of the sorted eligibility list, Figure 3), so the kept survivors
// are simply the tail beyond the prefix — no membership flags or compaction
// pass needed. The result is element-for-element identical to inserting
// each fresh marginal (in prefix order) at the first position whose dTPI is
// >= its own — the original one-at-a-time repair — but costs one merge pass
// instead of an O(moved·cores) cascade of insertion copies: under that
// insertion rule a fresh marginal lands before every equal-dTPI element
// already present, so equal-dTPI fresh marginals end up in reverse moved
// order and ahead of equal-dTPI kept ones, which is exactly what the
// reversed-order stable sort plus the fresh-first-on-ties merge below
// produce.
//
//hot:path
func (c *CoScale) repairCoreList(ev *policy.Evaluator, st *searchState, groupLen int) {
	kept := st.coreList[groupLen:]
	// Re-score the moved prefix in list order, stamping pos = j.
	c.setupScan(ev, st)
	fresh := c.fresh[:0]
	for j, moved := range st.coreList[:groupLen] {
		m, evaluated := c.marginalFor(int(moved.core), int32(j))
		if evaluated {
			c.stats.CoreEvals++
		}
		if m.core >= 0 {
			fresh = append(fresh, m)
		}
	}
	c.fresh = fresh
	if len(fresh) == 0 {
		// Shift the survivors down in place; order is already correct.
		st.coreList = append(st.coreList[:0], kept...)
		st.coreValid = true
		return
	}
	insertionSortFresh(fresh)
	if len(kept) == 0 {
		// The whole list moved (a full-prefix group): the sorted fresh
		// marginals ARE the new list. Swap backing arrays instead of copying.
		old := st.coreList
		st.coreList = fresh
		c.fresh = old[:0]
		st.coreValid = true
		return
	}
	out := c.merged[:0]
	ki := 0
	for _, f := range fresh {
		for ki < len(kept) && kept[ki].dTPI < f.dTPI {
			out = append(out, kept[ki])
			ki++
		}
		out = append(out, f)
	}
	out = append(out, kept[ki:]...)
	// The merged scratch becomes the live list; the old list's backing array
	// becomes the next repair's merge scratch.
	old := st.coreList
	st.coreList = out
	c.merged = old[:0]
	st.coreValid = true
}

// Utility is the Δpower/Δperformance score every greedy descent ranks moves
// by — CoScale, PowerCap and the fastcap frontier walk — with the degenerate
// cases pinned: a free move (no performance loss) has infinite utility; a
// move that saves no power has negative utility proportional to its cost.
func Utility(dPower, dPerf float64) float64 {
	if dPerf <= 1e-15 {
		if dPower > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return dPower / dPerf
}
