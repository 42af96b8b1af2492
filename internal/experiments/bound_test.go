package experiments

import (
	"sync"
	"testing"

	"coscale/internal/workload"
)

// TestFaultFreeBoundInvariant is the repository's bound property test: with
// ideal sensors and actuators, every bound-respecting policy must keep every
// program's worst-case degradation within gamma plus the measurement
// tolerance, on every mix in the workload registry.
//
// Uncoordinated is the documented exception — its CPU and memory managers
// each spend the full slack independently (the paper's Figs. 1 and 9
// motivation), so its violation is expected; the invariant only caps it at
// double-spending (2γ) plus tolerance.
func TestFaultFreeBoundInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy × mix sweep")
	}
	r := NewRunner(testBudget)
	policies := append(append([]PolicyName{}, PracticalPolicies...), HardenedName)
	mixes := workload.Names()

	type cell struct {
		pol   PolicyName
		mix   string
		worst float64
		limit float64
	}
	cells := make([]cell, 0, len(policies)*len(mixes))
	var mu sync.Mutex
	err := r.forEach(len(policies)*len(mixes), func(k int) error {
		pol, mix := policies[k/len(mixes)], mixes[k%len(mixes)]
		o, err := r.Execute(mix, pol, nil, "default")
		if err != nil {
			return err
		}
		limit := ViolationThreshold
		if pol == UncoordName {
			limit = 2*0.10 + 0.015
		}
		mu.Lock()
		cells = append(cells, cell{pol, mix, o.WorstDegradation(), limit})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.worst > c.limit {
			t.Errorf("%s on %s: worst degradation %.1f%% exceeds limit %.1f%%",
				c.pol, c.mix, c.worst*100, c.limit*100)
		}
	}
}
