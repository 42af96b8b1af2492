package loadgen

import (
	"encoding/json"
	"fmt"

	"coscale/internal/experiments"
	"coscale/internal/server"
	"coscale/internal/trace"
	"coscale/internal/workload"
)

// Generator streams are keyed by a tag so the workloads' draws never share
// a sequence.
const (
	tagServe = 0x5e7e_0be1
	tagChain = 0xc4a1_0000
	tagSweep = 0x5feb_0000
)

func newRand(seed, tag uint64) *trace.Rand { return trace.NewRand(seed ^ tag*0x9e3779b97f4a7c15) }

// serve-closed request mix.
const (
	serveInstr   = 100_000_000 // the paper's per-application budget
	kindBlock    = 10          // each block of 10 requests holds one exact repeat (an LRU hit) and one stream
	repeatWindow = 64          // a repeat picks one of this many latest requests
	verifyEvery  = 16          // 1 in verifyEvery responses is checked against the runner
	boundSteps   = 10_000      // bounds 0.05000..0.14999 in steps of 1e-5
)

// serveReq is one serve-closed request: the exact body sent, and how it is
// sent and checked.
type serveReq struct {
	Req      server.SimulateRequest `json:"req"`
	Body     []byte                 `json:"body"`
	RepeatOf int                    `json:"repeat_of"` // index of the repeated request, -1 for fresh
	Verify   bool                   `json:"verify"`
}

// serveGen deals the serve-closed requests in order, so request i is a pure
// function of (seed, i) whichever client sends it. Fresh requests are dealt
// from a shuffled deck of the 16 Table 1 mixes × the six practical policies,
// and each block of ten requests holds exactly one repeat and one stream, so
// every seed offers the same mix of work in a different order. A fresh
// request gets a bound its cell has not used before, so it misses the
// server's LRU while the per-mix baseline stays shared; a repeat copies one
// of the last repeatWindow requests exactly. The generator keeps only those
// last requests, so its memory does not grow with the requests it deals.
type serveGen struct {
	rng          *trace.Rand
	mixes        []string
	steps        int // fresh bounds per cell
	cells, kinds []int
	// Cell c's k-th fresh bound is step (stride[c]·k + offset[c]) mod steps:
	// stride[c] ends in 1, 3, 7 or 9, so it is coprime with a power of ten
	// and no step repeats before all have been used.
	stride, offset, fresh []int
	recent                [repeatWindow]serveReq // request i at i % repeatWindow
	n                     int                    // requests dealt
}

func newServeGen(seed uint64) *serveGen {
	cells := len(workload.Names()) * len(experiments.PracticalPolicies)
	g := &serveGen{rng: newRand(seed, tagServe), mixes: workload.Names(), steps: boundSteps,
		stride: make([]int, cells), offset: make([]int, cells), fresh: make([]int, cells)}
	for c := range cells {
		g.stride[c] = 10*int(g.rng.Intn(boundSteps/10)) + [4]int{1, 3, 7, 9}[g.rng.Intn(4)]
		g.offset[c] = int(g.rng.Intn(boundSteps))
	}
	return g
}

// deal takes the next card of a shuffled deck of 0..n-1, reshuffling a new
// deck when it runs out.
func (g *serveGen) deal(deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = make([]int, n)
		for i := range *deck {
			(*deck)[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(g.rng.Intn(uint64(i + 1)))
			(*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i]
		}
	}
	v := (*deck)[0]
	*deck = (*deck)[1:]
	return v
}

// next deals the next request, whose index is the number dealt before it.
// It fails once a cell has used all its fresh bounds.
func (g *serveGen) next() (serveReq, error) {
	pols := experiments.PracticalPolicies
	r := serveReq{RepeatOf: -1}
	kind := g.deal(&g.kinds, kindBlock) // 0: repeat, 1: stream, otherwise plain
	if kind == 0 && g.n > 0 {
		j := g.n - 1 - int(g.rng.Intn(uint64(min(repeatWindow, g.n))))
		o := g.recent[j%repeatWindow]
		r.RepeatOf, r.Req, r.Body = j, o.Req, o.Body
	} else {
		c := g.deal(&g.cells, len(g.fresh))
		if g.fresh[c] == g.steps {
			return r, fmt.Errorf("%d requests exhaust the %d fresh bounds of a mix × policy cell; shorten the run", g.n, g.steps)
		}
		step := (g.stride[c]*g.fresh[c] + g.offset[c]) % g.steps
		g.fresh[c]++
		r.Req = server.SimulateRequest{
			Workload:     g.mixes[c/len(pols)],
			Policy:       string(pols[c%len(pols)]),
			Bound:        float64(5000+step) / 100_000,
			Instructions: serveInstr,
			Stream:       kind == 1,
		}
		body, err := json.Marshal(r.Req)
		if err != nil {
			return r, err
		}
		r.Body = body
	}
	r.Verify = g.rng.Intn(verifyEvery) == 0
	g.recent[g.n%repeatWindow] = r
	g.n++
	return r, nil
}

// stickyChain yields the index of the observation each control-1024 op
// decides over: a seeded Markov chain over n states that stays put with
// probability stay and otherwise jumps to a uniformly drawn other state,
// so runs of one phase alternate with phase changes.
type stickyChain struct {
	rng  *trace.Rand
	n    int
	stay float64
	cur  int
}

func newStickyChain(seed uint64, n int, stay float64) *stickyChain {
	return &stickyChain{rng: newRand(seed, tagChain), n: n, stay: stay}
}

func (c *stickyChain) next() int {
	if c.rng.Float64() >= c.stay {
		c.cur = (c.cur + 1 + int(c.rng.Intn(uint64(c.n-1)))) % c.n
	}
	return c.cur
}
