package policy

import (
	"math"
	"strconv"
	"sync/atomic"

	"coscale/internal/cache"
	"coscale/internal/freq"
	"coscale/internal/memsys"
)

// PlatformTables are the observation-independent, platform-derived columns
// candidate evaluation reads on every decision: the step-indexed Hz/Volts
// tables of both frequency ladders and the per-step memory queueing models.
// They depend only on a Config's ladders and memory parameters — never on an
// epoch's observation — so one build serves every evaluator on an identical
// platform. All fields are written once by BuildPlatformTables (the model
// cache's Reset builds every step) and read-only afterwards, which is what
// makes a shared instance safe under coscale-serve's concurrent workers.
//
// The per-epoch prediction tables proper (perf.StepTable, power.CoreTable)
// stay per-evaluator: their columns are functions of the epoch's counter
// statistics and instruction mixes, not of the platform.
type PlatformTables struct {
	CoreHz []float64 // CoreLadder Hz per step
	CoreV  []float64 // CoreLadder Volts per step
	MemHz  []float64 // MemLadder Hz per step
	MemV   []float64 // MemLadder Volts per step

	Models memsys.ModelCache // per-step memory queueing models
}

// BuildPlatformTables derives the platform tables from cfg's ladders and
// memory parameters. cfg must be validated.
func BuildPlatformTables(cfg Config) *PlatformTables {
	cl, ml := cfg.CoreLadder, cfg.MemLadder
	cs, ms := cl.Steps(), ml.Steps()
	// One build per distinct platform, shared across evaluators and cached
	// process-wide — allocation here is construction, not steady state.
	p := &PlatformTables{
		CoreHz: make([]float64, cs), //hot:alloc-ok one build per platform, memoized by TableCache
		CoreV:  make([]float64, cs), //hot:alloc-ok one build per platform, memoized by TableCache
		MemHz:  make([]float64, ms), //hot:alloc-ok one build per platform, memoized by TableCache
		MemV:   make([]float64, ms), //hot:alloc-ok one build per platform, memoized by TableCache
	}
	for s := 0; s < cs; s++ {
		pt := cl.Point(s)
		p.CoreHz[s] = pt.Hz
		p.CoreV[s] = pt.Volts
	}
	for s := 0; s < ms; s++ {
		pt := ml.Point(s)
		p.MemHz[s] = pt.Hz
		p.MemV[s] = pt.Volts
	}
	p.Models.Reset(cfg.Mem, p.MemHz)
	return p
}

// platformRef remembers the platform tables of the last Config it served.
// get fetches them from the shared Config.Tables cache when one is wired in
// and builds them privately otherwise, and does so again only when the
// platform changed (ladder identity plus memory parameters), so a
// per-epoch caller does no ladder work in steady state — and shared-cache
// mode does it once per process per platform.
type platformRef struct {
	tables *PlatformTables
	core   *freq.Ladder
	mem    *freq.Ladder
	memP   memsys.Params
}

// get returns the platform tables for cfg's platform.
//
//hot:path
func (r *platformRef) get(cfg *Config) *PlatformTables {
	if r.tables != nil && r.core == cfg.CoreLadder && r.mem == cfg.MemLadder && r.memP == cfg.Mem {
		return r.tables
	}
	if cfg.Tables != nil {
		r.tables = cfg.Tables.Get(*cfg)
	} else {
		r.tables = BuildPlatformTables(*cfg)
	}
	r.core, r.mem, r.memP = cfg.CoreLadder, cfg.MemLadder, cfg.Mem
	return r.tables
}

// TableCache memoizes PlatformTables per platform, so a process running many
// evaluators over identical platforms — coscale-serve's worker pool, an
// experiments sweep — builds each platform's tables
// once instead of once per evaluator. Keys are canonical value strings of
// the ladder points and memory parameters (not pointer identities), so two
// configs that describe the same platform share one build even when their
// ladders were constructed separately. Concurrent Gets deduplicate
// singleflight-style. The zero value is ready to use.
type TableCache struct {
	flight cache.Flight[string, *PlatformTables]

	builds atomic.Int64 // platform builds actually executed
	hits   atomic.Int64 // Gets served from an existing build
}

// Get returns the shared tables for cfg's platform, building them at most
// once per distinct platform across all goroutines.
func (tc *TableCache) Get(cfg Config) *PlatformTables {
	built := false
	p, _ := tc.flight.Do(platformKey(cfg), func() (*PlatformTables, error) {
		built = true
		tc.builds.Add(1)
		return BuildPlatformTables(cfg), nil
	})
	if !built {
		tc.hits.Add(1)
	}
	return p
}

// Stats reports how many platform builds the cache executed and how many
// Gets it served from an existing build (the /metrics counters).
func (tc *TableCache) Stats() (builds, hits int64) {
	return tc.builds.Load(), tc.hits.Load()
}

// platformKey renders the platform-defining inputs — every ladder point and
// the memory parameters — as a canonical string. Floats are keyed by their
// exact bit patterns: two platforms share tables only when every derived
// value would be bit-identical.
func platformKey(cfg Config) string {
	// Keyed lookups run only when an evaluator's platform actually changed
	// (platformRef.get's identity guard skips them per-decision), so the key
	// buffer is off the steady-state path.
	buf := make([]byte, 0, 512) //hot:alloc-ok runs only on evaluator platform change, not per decision
	appendF := func(v float64) {
		buf = strconv.AppendUint(buf, math.Float64bits(v), 16)
		buf = append(buf, ';')
	}
	cl, ml := cfg.CoreLadder, cfg.MemLadder
	buf = append(buf, 'c')
	for s := 0; s < cl.Steps(); s++ {
		pt := cl.Point(s)
		appendF(pt.Hz)
		appendF(pt.Volts)
	}
	buf = append(buf, 'm')
	for s := 0; s < ml.Steps(); s++ {
		pt := ml.Point(s)
		appendF(pt.Hz)
		appendF(pt.Volts)
	}
	buf = append(buf, 'p')
	buf = strconv.AppendInt(buf, int64(cfg.Mem.Channels), 10)
	buf = append(buf, ';')
	buf = strconv.AppendInt(buf, int64(cfg.Mem.BanksPerChannel), 10)
	buf = append(buf, ';')
	appendF(cfg.Mem.TRCDNs)
	appendF(cfg.Mem.TCLNs)
	appendF(cfg.Mem.TRPNs)
	appendF(cfg.Mem.BurstCycles)
	appendF(cfg.Mem.MCCycles)
	appendF(cfg.Mem.MaxUtil)
	return string(buf)
}
