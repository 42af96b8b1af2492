package core

import (
	"math"
	"slices"
	"testing"

	"coscale/internal/trace"
)

// TestEligibilitySortsMatchComparator: the eligibility list's two sorts —
// radixSortDTPI for a rebuilt list, insertionSortFresh for a repair's fresh
// marginals — must order every list exactly as slices.SortFunc with the
// comparator it replaces (cmpDTPI, cmpFresh), element for element. The
// lists cover every length to 300 and a spread up to 2048, with all-equal
// and heavily tied dTPIs, ±0, ±Inf, subnormals and negative values, in the
// order drawn, nearly sorted and reversed (reversed and drawn lists exhaust
// the insertion sort's shift budget once they are long), and NaN keys,
// where both must fall back to the comparison sort on the untouched input.
func TestEligibilitySortsMatchComparator(t *testing.T) {
	rng := trace.NewRand(29)
	lengths := []int{}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 511, 512, 513, 777, 1023, 1024, 1025, 1500, 2047, 2048)

	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64}
	type keyGen struct {
		name string
		key  func(i, n int) float64
	}
	keys := []keyGen{
		{"distinct", func(int, int) float64 { return 1e-10 * (1 + rng.Float64()) }},
		{"equal", func(int, int) float64 { return 1e-10 }},
		{"ties", func(int, int) float64 { return float64(rng.Intn(3)) * 1e-10 }},
		{"special", func(int, int) float64 { return specials[rng.Intn(uint64(len(specials)))] }},
		{"mixed", func(int, int) float64 {
			switch rng.Intn(4) {
			case 0:
				return specials[rng.Intn(uint64(len(specials)))]
			case 1:
				return float64(rng.Intn(2)) * 1e-10
			default:
				return (rng.Float64() - 0.3) * 1e-9
			}
		}},
		{"nan", func(int, int) float64 {
			if rng.Intn(8) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(4)) * 1e-10
		}},
	}
	type orderGen struct {
		name  string
		order func([]coreMarg, func(a, b coreMarg) int)
	}
	orders := []orderGen{
		{"as-drawn", func([]coreMarg, func(a, b coreMarg) int) {}},
		{"nearly-sorted", func(l []coreMarg, cmp func(a, b coreMarg) int) {
			slices.SortFunc(l, cmp)
			for k := 0; k < len(l)/16+1 && len(l) > 1; k++ {
				i := rng.Intn(uint64(len(l) - 1))
				l[i], l[i+1] = l[i+1], l[i]
			}
		}},
		{"reversed", func(l []coreMarg, cmp func(a, b coreMarg) int) {
			slices.SortFunc(l, cmp)
			slices.Reverse(l)
		}},
	}

	var counts radixCounts
	var scratch []coreMarg
	for _, kg := range keys {
		for _, og := range orders {
			for _, n := range lengths {
				// A rebuilt list: dTPIs in the order drawn, cores in index
				// order, as rebuildCoreList appends them.
				list := make([]coreMarg, n)
				for i := range list {
					list[i] = coreMarg{dTPI: kg.key(i, n)}
				}
				og.order(list, cmpDTPI)
				for i := range list {
					list[i].core, list[i].dPerf = int32(i), float64(i)
				}
				want := slices.Clone(list)
				slices.SortFunc(want, cmpDTPI)
				got, spare := radixSortDTPI(slices.Clone(list), scratch, &counts)
				requireSameMarginals(t, "rebuild/"+kg.name+"/"+og.name, n, got, want)
				scratch = spare

				// A repair's fresh marginals: distinct insertion positions,
				// arbitrary cores.
				fresh := make([]coreMarg, n)
				for j := range fresh {
					fresh[j] = coreMarg{core: int32(rng.Intn(4096)), pos: int32(j), dTPI: kg.key(j, n)}
				}
				og.order(fresh, cmpFresh)
				want = slices.Clone(fresh)
				slices.SortFunc(want, cmpFresh)
				got = slices.Clone(fresh)
				insertionSortFresh(got)
				requireSameMarginals(t, "repair/"+kg.name+"/"+og.name, n, got, want)
			}
		}
	}
}

// requireSameMarginals fails unless got and want hold the same marginals in
// the same order, floats compared by bit pattern.
func requireSameMarginals(t *testing.T, name string, n int, got, want []coreMarg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: %d elements, want %d", name, n, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.core != w.core || g.pos != w.pos ||
			math.Float64bits(g.dTPI) != math.Float64bits(w.dTPI) ||
			math.Float64bits(g.dPerf) != math.Float64bits(w.dPerf) ||
			math.Float64bits(g.dPower) != math.Float64bits(w.dPower) {
			t.Fatalf("%s n=%d: element %d is %+v, want %+v", name, n, i, g, w)
		}
	}
}
