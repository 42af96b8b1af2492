package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Ring is a consistent hash ring mapping canonical request hashes to worker
// IDs. Each worker owns ringVirtualNodes points placed by sha256 over
// "id#vnode"; a job routes to the first eligible worker at or after the
// point of its own hash. Routing is therefore a pure function of the
// (worker set, job hash, eligibility) triple: two coordinators with the
// same joined workers route identically, which keeps retries after a
// coordinator restart on the same workers — and their warm caches.
//
// Ring is not goroutine-safe; the coordinator guards it with its own lock.
type Ring struct {
	points []ringPoint // sorted by point
}

// ringVirtualNodes is each worker's point count, enough for a few-percent
// spread at small fleets.
const ringVirtualNodes = 64

type ringPoint struct {
	point  uint64
	worker string
}

// NewRing builds an empty ring.
func NewRing() *Ring { return &Ring{} }

// pointFor hashes one virtual node of a worker onto the ring.
func pointFor(worker string, vnode int) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(vnode))
	sum := sha256.Sum256(append([]byte(worker+"#"), b[:]...))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a worker's virtual nodes (idempotent).
func (r *Ring) Add(worker string) {
	for _, p := range r.points {
		if p.worker == worker {
			return
		}
	}
	for v := 0; v < ringVirtualNodes; v++ {
		r.points = append(r.points, ringPoint{point: pointFor(worker, v), worker: worker})
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.point != b.point {
			return a.point < b.point
		}
		return a.worker < b.worker // total order even on (astronomically unlikely) collisions
	})
}

// Remove deletes a worker's virtual nodes.
func (r *Ring) Remove(worker string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.worker != worker {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the first worker at or clockwise from the hash's ring
// point for which eligible returns true (a nil predicate accepts every
// worker). It reports ok=false when no worker is eligible. hash is the
// canonical hex request hash; its leading bytes, already uniform, place the
// job on the ring.
func (r *Ring) Lookup(hash string, eligible func(worker string) bool) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	point := hashPoint(hash)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= point })
	seen := map[string]bool{}
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.worker] {
			continue
		}
		seen[p.worker] = true
		if eligible == nil || eligible(p.worker) {
			return p.worker, true
		}
	}
	return "", false
}

// hashPoint maps a canonical hex hash onto the ring by re-hashing it: the
// request hash is already sha256, but re-hashing keeps the placement
// independent of the hex encoding and of any future hash-format change.
func hashPoint(hash string) uint64 {
	sum := sha256.Sum256([]byte(hash))
	return binary.BigEndian.Uint64(sum[:8])
}

// Workers returns the distinct workers on the ring, sorted.
func (r *Ring) Workers() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.points {
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, p.worker)
		}
	}
	sort.Strings(out)
	return out
}
