package trace

// Generator expands an AppProfile into a deterministic address-level stream
// of L2 accesses — the detailed backend's equivalent of the paper's
// M5-collected traces (L1 cache misses and writebacks). Randomness comes
// from a splitmix64 PRNG seeded per (profile, core, seed), so runs are
// bit-reproducible.

import "coscale/internal/approx"

// Rand is a splitmix64 PRNG (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): tiny, fast, deterministic,
// and the repository's one sequential random stream. It passes BigCrush at
// two multiplies plus shifts per draw.
type Rand struct{ state uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Mix64 is the splitmix64 finalizer as a pure function: it scrambles x into
// 64 uniformly distributed bits. Besides backing Rand, it serves as a keyed
// hash for callers that need deterministic per-event draws independent of
// evaluation order — the draw for a (seed, event-key) pair is a pure
// function, so concurrent use cannot perturb replay.
func Mix64(x uint64) uint64 {
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n).
func (r *Rand) Intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Uint64() % n
}

// MemAccess is one L2 access in the stream.
type MemAccess struct {
	// Gap is the number of committed instructions since the previous
	// access (the instructions execute at the profile's CPIBase).
	Gap uint64
	// Addr is the block-aligned physical address.
	Addr uint64
	// Write marks a store (dirties the L2 line on hit/allocate).
	Write bool
}

// Generator produces a profile's access stream.
type Generator struct {
	prof *AppProfile
	rng  *Rand

	base      uint64 // this core's private address region
	footBlk   uint64 // footprint in blocks
	blockSize uint64

	budget uint64 // instructions per full pass (for phase positioning)
	done   uint64 // instructions emitted so far
	last   uint64 // previous address, for sequential runs
}

// GeneratorRegionBytes spaces per-core address regions far apart so streams
// never alias.
const GeneratorRegionBytes = 1 << 33 // 8 GB per core

// NewGenerator builds the deterministic stream for profile p on the given
// core. budget is the instruction count of one full execution (phases are
// positioned against it); seed varies whole experiments.
func NewGenerator(p *AppProfile, core int, budget, seed uint64) *Generator {
	footMB := p.MRC.A * 1.5
	if approx.Zero(p.MRC.K, 0) {
		footMB = 0.5 // small working set: fits comfortably in a fair share
	}
	if footMB < 0.25 {
		footMB = 0.25
	}
	if footMB > 64 {
		footMB = 64
	}
	return &Generator{
		prof:      p,
		rng:       NewRand(seed*1099511628211 + uint64(core)*2654435761 + 1),
		base:      uint64(core) * GeneratorRegionBytes,
		footBlk:   uint64(footMB * 1024 * 1024 / 64),
		blockSize: 64,
		budget:    budget,
	}
}

// Footprint returns the stream's working-set size in bytes.
func (g *Generator) Footprint() uint64 { return g.footBlk * g.blockSize }

// Done returns the instructions emitted so far.
func (g *Generator) Done() uint64 { return g.done }

// Next returns the next access. The stream is infinite; callers stop at
// their instruction budget.
func (g *Generator) Next() MemAccess {
	frac := 0.0
	if g.budget > 0 {
		frac = float64(g.done%g.budget) / float64(g.budget)
	}
	st := g.prof.At(frac)

	apki := st.L2APKI
	if apki < 0.01 {
		apki = 0.01
	}
	// Geometric-ish gap around the mean 1000/APKI, in [mean/2, 3*mean/2).
	mean := 1000.0 / apki
	gap := uint64(mean/2 + g.rng.Float64()*mean)
	if gap == 0 {
		gap = 1
	}
	g.done += gap

	// Address: continue the sequential run with probability RowLocality,
	// else jump uniformly within the footprint.
	var blk uint64
	if g.last != 0 && g.rng.Float64() < g.prof.RowLocality {
		blk = (g.last-g.base)/g.blockSize + 1
		if blk >= g.footBlk {
			blk = 0
		}
	} else {
		blk = g.rng.Intn(g.footBlk)
	}
	addr := g.base + blk*g.blockSize
	g.last = addr

	return MemAccess{
		Gap:   gap,
		Addr:  addr,
		Write: g.rng.Float64() < g.prof.DirtyFrac*0.5, // stores are a subset of accesses
	}
}
