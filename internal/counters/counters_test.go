package counters

import (
	"reflect"
	"testing"
	"testing/quick"
)

// addFields returns a + b field by field (wrapping, like the hardware
// counters), walking every uint64 field by reflection so a field added to
// Core or Channel is covered without editing this helper.
func addFields[T any](a, b T) T {
	out := a
	ov, bv := reflect.ValueOf(&out).Elem(), reflect.ValueOf(b)
	for i := 0; i < ov.NumField(); i++ {
		ov.Field(i).SetUint(ov.Field(i).Uint() + bv.Field(i).Uint())
	}
	return out
}

func TestCoreSubAndRatios(t *testing.T) {
	start := Core{Cycles: 100, TIC: 50, TMS: 5, TLA: 6, TLM: 2, TLS: 2}
	end := Core{Cycles: 1100, TIC: 1050, TMS: 105, TLA: 126, TLM: 22, TLS: 22}
	d := end.Sub(start)
	want := Core{Cycles: 1000, TIC: 1000, TMS: 100, TLA: 120, TLM: 20, TLS: 20}
	if d != want {
		t.Fatalf("Sub deltas = %+v, want %+v", d, want)
	}
}

// TestCoreAddSubRoundTrip checks that Sub subtracts every field: a window
// added onto any start comes back exactly, wraparound included.
func TestCoreAddSubRoundTrip(t *testing.T) {
	f := func(a, b Core) bool { return addFields(a, b).Sub(a) == b }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChannelAddSubRoundTrip(t *testing.T) {
	f := func(a, b Channel) bool { return addFields(a, b).Sub(a) == b }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSystemSnapshotIsolation(t *testing.T) {
	s := NewSystem(4, 2)
	s.Cores[0].TIC = 10
	var snap, now, d System
	s.SnapshotInto(&snap)
	s.Cores[0].TIC = 99
	s.Channels[1].Reads = 7
	if snap.Cores[0].TIC != 10 {
		t.Error("snapshot shares storage with live counters")
	}
	if snap.Channels[1].Reads != 0 {
		t.Error("snapshot channel shares storage with live counters")
	}
	s.SnapshotInto(&now)
	now.SubInto(&d, &snap)
	if d.Cores[0].TIC != 89 || d.Channels[1].Reads != 7 {
		t.Errorf("System.SubInto deltas wrong: %+v", d)
	}
}

func TestNewSystemShape(t *testing.T) {
	s := NewSystem(16, 4)
	if len(s.Cores) != 16 || len(s.Channels) != 4 {
		t.Fatalf("NewSystem shape = %d cores, %d channels", len(s.Cores), len(s.Channels))
	}
}
