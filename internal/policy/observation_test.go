package policy

import (
	"math"
	"reflect"
	"testing"
)

// obsFixture is a two-core observation with every field non-zero and an
// explicit thread mapping, so each leaf of the struct can be perturbed.
func obsFixture() Observation {
	obs := synthObs(testCfg(2), memoryStats())
	obs.MemStep = 1
	obs.CoreSteps = []int{1, 2}
	obs.ThreadIDs = []int{1, 0}
	return obs
}

// scalarLeaves calls visit on every scalar leaf reachable from v — struct
// fields and slice elements, recursively — and fails on any kind BitEqual
// does not know how to compare, so a field added to Observation or
// CoreObs later cannot slip past the reuse key unnoticed.
func scalarLeaves(t *testing.T, v reflect.Value, path string, visit func(path string, v reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			scalarLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Slice:
		for i := range v.Len() {
			scalarLeaves(t, v.Index(i), path+"[]", visit)
		}
	case reflect.Float64, reflect.Int, reflect.Uint64:
		visit(path, v)
	default:
		t.Fatalf("%s: kind %s is not covered by BitEqual", path, v.Kind())
	}
}

// TestObservationBitEqualCoversEveryField perturbs each scalar leaf of an
// observation in turn and requires BitEqual to see the difference in both
// directions, and CloneInto to reproduce the original exactly.
func TestObservationBitEqualCoversEveryField(t *testing.T) {
	base := obsFixture()
	var c Observation
	base.CloneInto(&c)
	if !base.BitEqual(&c) || !c.BitEqual(&base) {
		t.Fatal("a clone is not BitEqual to its source")
	}
	leaves := 0
	scalarLeaves(t, reflect.ValueOf(&base).Elem(), "Observation", func(string, reflect.Value) { leaves++ })
	for k := range leaves {
		base.CloneInto(&c)
		i := 0
		var mutated string
		scalarLeaves(t, reflect.ValueOf(&c).Elem(), "Observation", func(path string, v reflect.Value) {
			if i++; i-1 != k {
				return
			}
			mutated = path
			switch v.Kind() {
			case reflect.Float64:
				v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
			case reflect.Int:
				v.SetInt(v.Int() + 1)
			default:
				v.SetUint(v.Uint() + 1)
			}
		})
		if base.BitEqual(&c) || c.BitEqual(&base) {
			t.Errorf("BitEqual misses a change to %s", mutated)
		}
	}
	// Six top-level scalars, two CoreSteps and two ThreadIDs entries, and
	// 13 scalars per core.
	if want := 6 + 2 + 2 + 2*13; leaves != want {
		t.Errorf("walked %d leaves, want %d", leaves, want)
	}
}

// TestObservationBitEqualFloatEdges pins the float cases where == and bit
// equality disagree: +0 and -0 differ, and a NaN field never matches, not
// even a copy of itself.
func TestObservationBitEqualFloatEdges(t *testing.T) {
	a, b := obsFixture(), obsFixture()
	a.UtilBus, b.UtilBus = 0, math.Copysign(0, -1)
	if a.BitEqual(&b) {
		t.Error("+0 and -0 compared equal")
	}
	a.UtilBus, b.UtilBus = math.NaN(), 0
	a.CloneInto(&b)
	if a.BitEqual(&b) || b.BitEqual(&b) {
		t.Error("an observation with a NaN field compared equal")
	}
}

// TestObservationCloneIntoOwnsStorage checks that CloneInto is a deep copy
// that preserves nil slices and reuses the destination's storage.
func TestObservationCloneIntoOwnsStorage(t *testing.T) {
	src := obsFixture()
	var dst Observation
	src.CloneInto(&dst)
	src.CoreSteps[0]++
	src.ThreadIDs[0]++
	src.Cores[1].IPS++
	if src.BitEqual(&dst) {
		t.Fatal("CloneInto aliases the source's slices")
	}
	src.ThreadIDs = nil
	src.CloneInto(&dst)
	if dst.ThreadIDs != nil || !src.BitEqual(&dst) {
		t.Error("a nil ThreadIDs did not stay nil")
	}
	empty := src
	empty.ThreadIDs = []int{}
	if empty.BitEqual(&dst) {
		t.Error("an empty ThreadIDs compared equal to a nil one")
	}
	if n := testing.AllocsPerRun(10, func() { src.CloneInto(&dst) }); n != 0 {
		t.Errorf("steady-state CloneInto allocates %.0f times", n)
	}
}
