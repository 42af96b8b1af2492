package memsys

import (
	"math"
	"testing"
	"testing/quick"

	"coscale/internal/freq"
)

func TestUnloadedLatency(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	l := p.Evaluate(800e6, 0)
	// At 800 MHz: SBank = 30ns + 6/(1.6GHz) = 33.75ns; SBus = 4/800MHz = 5ns.
	want := 38.75e-9
	if math.Abs(l.Latency-want) > 1e-12 {
		t.Errorf("unloaded latency = %g, want %g", l.Latency, want)
	}
	if l.XiBus != 1 || l.XiBank != 1 {
		t.Errorf("unloaded xi = (%g, %g), want (1,1)", l.XiBus, l.XiBank)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	prev := 0.0
	for _, rate := range []float64{0, 1e8, 3e8, 5e8, 6e8} {
		l := p.Evaluate(800e6, rate)
		if l.Latency <= prev {
			t.Errorf("latency not increasing at rate %g: %g <= %g", rate, l.Latency, prev)
		}
		prev = l.Latency
	}
}

func TestLatencyIncreasesAsFrequencyDrops(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	rate := 2e8 // 200M requests/s across 4 channels
	prev := 0.0
	for _, hz := range []float64{800e6, 600e6, 400e6, 206e6} {
		l := p.Evaluate(hz, rate)
		if l.Latency <= prev {
			t.Errorf("latency at %g Hz = %g, want > %g", hz, l.Latency, prev)
		}
		prev = l.Latency
	}
}

func TestFrequencySensitivityGrowsWithLoad(t *testing.T) {
	t.Parallel()
	// The latency penalty of scaling 800->200 MHz must be much larger for
	// a loaded system than an idle one: this is what makes memory DVFS
	// cheap for ILP workloads and expensive for MEM workloads.
	p := DefaultParams()
	idle := p.Evaluate(206e6, 0).Latency / p.Evaluate(800e6, 0).Latency
	loaded := p.Evaluate(206e6, 1.8e8).Latency / p.Evaluate(800e6, 1.8e8).Latency
	if loaded < idle*1.5 {
		t.Errorf("loaded ratio %.2f not sufficiently above idle ratio %.2f", loaded, idle)
	}
}

func TestUtilizationClamped(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	l := p.Evaluate(206e6, 1e12) // absurd load
	if l.UtilBus > p.MaxUtil || l.UtilBank > p.MaxUtil {
		t.Errorf("utilization exceeded MaxUtil: %+v", l)
	}
	if math.IsInf(l.Latency, 1) || math.IsNaN(l.Latency) {
		t.Errorf("latency not finite under saturation: %g", l.Latency)
	}
}

func TestZeroFrequency(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	l := p.Evaluate(0, 1e8)
	if !math.IsInf(l.Latency, 1) {
		t.Errorf("zero frequency latency = %g, want +Inf", l.Latency)
	}
}

func TestPeakBandwidth(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	// 4 channels x 800 MHz / 4 cycles = 800M requests/s = 51.2 GB/s.
	if got := p.PeakBandwidth(800e6); got != 8e8 {
		t.Errorf("PeakBandwidth(800MHz) = %g, want 8e8", got)
	}
	if got := p.PeakBandwidth(200e6); got != 2e8 {
		t.Errorf("PeakBandwidth(200MHz) = %g, want 2e8", got)
	}
}

func TestServiceTimeComponents(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	// SBus doubles when frequency halves.
	if r := p.SBus(400e6) / p.SBus(800e6); math.Abs(r-2) > 1e-9 {
		t.Errorf("SBus ratio = %g, want 2", r)
	}
	// SBank scales sub-linearly: only the MC pipeline portion scales.
	r := p.SBank(400e6) / p.SBank(800e6)
	if r <= 1 || r >= 2 {
		t.Errorf("SBank ratio = %g, want in (1,2)", r)
	}
	// Bank occupancy includes precharge.
	if p.BankOccupancy(800e6) <= p.SBank(800e6) {
		t.Error("BankOccupancy should exceed SBank")
	}
}

// Property: latency is finite, >= the unloaded service floor, and xi >= 1
// for any reasonable operating point.
func TestEvaluateProperties(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	f := func(hzRaw, rateRaw uint16) bool {
		hz := 200e6 + float64(hzRaw)/65535.0*600e6
		rate := float64(rateRaw) / 65535.0 * 1e9
		l := p.Evaluate(hz, rate)
		floor := p.SBank(hz) + p.SBus(hz)
		return l.Latency >= floor-1e-15 && !math.IsNaN(l.Latency) &&
			l.XiBus >= 1 && l.XiBank >= 1 && l.UtilBus >= 0 && l.UtilBank >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestModelCacheMatchesModelAt checks that every step of a Reset cache is
// ModelAt of that step's frequency, field by field and bit for bit, on the
// default memory ladder with a zero-Hz step (the invalid model) appended,
// and that a shorter and then a longer Reset reuse the backing array
// without serving a stale model.
func TestModelCacheMatchesModelAt(t *testing.T) {
	t.Parallel()
	p := DefaultParams()
	ladder := freq.DefaultMemLadder()
	hz := make([]float64, 0, ladder.Steps()+1)
	for s := 0; s < ladder.Steps(); s++ {
		hz = append(hz, ladder.Hz(s))
	}
	hz = append(hz, 0)

	var c ModelCache
	check := func(name string, p Params, hz []float64) {
		t.Helper()
		c.Reset(p, hz)
		if len(c.models) != len(hz) {
			t.Fatalf("%s: %d models for %d steps", name, len(c.models), len(hz))
		}
		for s, f := range hz {
			got, want := c.At(s), p.ModelAt(f)
			gb := []float64{got.channels, got.banks, got.maxUtil, got.sBus, got.sBank, got.bankOcc}
			wb := []float64{want.channels, want.banks, want.maxUtil, want.sBus, want.sBank, want.bankOcc}
			if got.invalid != want.invalid {
				t.Errorf("%s: step %d (%g Hz) invalid = %v, ModelAt %v", name, s, f, got.invalid, want.invalid)
			}
			for k := range gb {
				if math.Float64bits(gb[k]) != math.Float64bits(wb[k]) {
					t.Errorf("%s: step %d (%g Hz) field %d = %v, ModelAt %v", name, s, f, k, gb[k], wb[k])
				}
			}
		}
	}
	check("default", p, hz)
	if !c.At(len(hz) - 1).invalid {
		t.Error("zero-Hz step is not the invalid model")
	}
	backing := &c.models[0]

	// A shorter ladder on other parameters reuses the array; the longer
	// one after it must rebuild every step, not keep the shorter Reset's.
	q := p
	q.Channels, q.MaxUtil = 2, 0.9
	check("shorter", q, hz[2:4])
	if &c.models[0] != backing {
		t.Error("a shorter Reset reallocated the models")
	}
	check("longer", p, hz)
	check("grown", p, append(append([]float64(nil), hz...), hz...))
}
