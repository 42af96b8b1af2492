package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

func fakeHash(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("cell-%d", i)))
	return hex.EncodeToString(sum[:])
}

// TestRingDeterministicAndStable verifies the two properties routing relies
// on: two independently built rings with the same worker set route every
// hash identically, and removing one worker only moves the hashes that
// worker owned.
func TestRingDeterministicAndStable(t *testing.T) {
	build := func() *Ring {
		r := NewRing()
		// Insertion order must not matter.
		for _, w := range []string{"w2", "w1", "w3"} {
			r.Add(w)
		}
		return r
	}
	a, b := build(), build()
	const n = 200
	owners := make([]string, n)
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		wa, ok := a.Lookup(fakeHash(i), nil)
		if !ok {
			t.Fatal("lookup failed on populated ring")
		}
		wb, _ := b.Lookup(fakeHash(i), nil)
		if wa != wb {
			t.Fatalf("hash %d routed to %s on ring a but %s on ring b", i, wa, wb)
		}
		owners[i] = wa
		counts[wa]++
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		if counts[w] == 0 {
			t.Fatalf("worker %s owns no hashes (spread %v)", w, counts)
		}
	}

	// Kill w2: only its hashes move; survivors keep theirs.
	a.Remove("w2")
	for i := 0; i < n; i++ {
		w, ok := a.Lookup(fakeHash(i), nil)
		if !ok {
			t.Fatal("lookup failed after removal")
		}
		if owners[i] != "w2" && w != owners[i] {
			t.Fatalf("hash %d moved from %s to %s though its owner survived", i, owners[i], w)
		}
		if owners[i] == "w2" && w == "w2" {
			t.Fatalf("hash %d still routed to removed worker", i)
		}
	}
}

// TestRingEligibility walks clockwise past ineligible workers and reports
// failure when nobody qualifies.
func TestRingEligibility(t *testing.T) {
	r := NewRing()
	r.Add("w1")
	r.Add("w2")
	h := fakeHash(0)
	primary, _ := r.Lookup(h, nil)
	other, ok := r.Lookup(h, func(w string) bool { return w != primary })
	if !ok || other == primary {
		t.Fatalf("fallback lookup = (%s, %v), want the other worker", other, ok)
	}
	if _, ok := r.Lookup(h, func(string) bool { return false }); ok {
		t.Fatal("lookup with no eligible workers reported ok")
	}
	if _, ok := NewRing().Lookup(h, nil); ok {
		t.Fatal("lookup on empty ring reported ok")
	}
}
