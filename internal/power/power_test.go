package power

import (
	"math"
	"testing"
	"testing/quick"

	"coscale/internal/trace"
)

func TestCorePowerScalesWithVoltageAndFrequency(t *testing.T) {
	t.Parallel()
	m := DefaultCoreModel()
	mix := refMix()
	high := m.Power(1.2, 4e9, 3.2e9, mix)
	lowF := m.Power(1.2, 2.2e9, 1.76e9, mix) // same IPC at lower clock
	lowVF := m.Power(0.65, 2.2e9, 1.76e9, mix)
	if !(lowVF < lowF && lowF < high) {
		t.Errorf("power ordering violated: %g, %g, %g", lowVF, lowF, high)
	}
	// Voltage scaling should give super-linear savings: the dynamic part
	// drops with V^2·f.
	if lowVF > high*0.45 {
		t.Errorf("V+F scaled power %g should be well under half of %g", lowVF, high)
	}
}

func TestCorePowerMagnitude(t *testing.T) {
	t.Parallel()
	m := DefaultCoreModel()
	p := m.Power(1.2, 4e9, 0.8*4e9, refMix())
	if p < 10 || p > 18 {
		t.Errorf("per-core power at reference = %.1f W, want ≈13-14 W", p)
	}
}

func TestEnergyPerInstrMixSensitivity(t *testing.T) {
	t.Parallel()
	m := DefaultCoreModel()
	fp := m.EnergyPerInstr(1.2, trace.InstrMix{FPU: 0.4, LoadStore: 0.3})
	intg := m.EnergyPerInstr(1.2, trace.InstrMix{ALU: 0.4, Branch: 0.2})
	if fp <= intg {
		t.Error("FP-heavy mix should cost more energy per instruction")
	}
	if m.EnergyPerInstr(0.6, trace.InstrMix{}) >= m.EnergyPerInstr(1.2, trace.InstrMix{}) {
		t.Error("energy must drop with voltage")
	}
}

func TestIdleCoreStillBurnsClockAndLeakage(t *testing.T) {
	t.Parallel()
	m := DefaultCoreModel()
	p := m.Power(1.2, 4e9, 0, refMix())
	if p < m.PLeak {
		t.Errorf("idle power %g below leakage %g", p, m.PLeak)
	}
	if p >= m.Power(1.2, 4e9, 3e9, refMix()) {
		t.Error("busy core should burn more than idle core")
	}
}

func TestL2Power(t *testing.T) {
	t.Parallel()
	m := DefaultL2Model()
	if m.Power(0) != m.PLeak {
		t.Error("idle L2 power should equal leakage")
	}
	if m.Power(1e9) <= m.Power(1e8) {
		t.Error("L2 power should grow with access rate")
	}
}

func TestMemPowerFrequencyScaling(t *testing.T) {
	t.Parallel()
	m := DefaultMemModel()
	use := func(hz, v float64) MemUsage {
		return MemUsage{BusHz: hz, MCVolts: v, ReadRate: 1e8, WriteRate: 3e7,
			ActRate: 1.3e8, UtilBus: 0.3, BusyFrac: 0.8}
	}
	hi := m.Power(use(800e6, 1.2)).Total()
	lo := m.Power(use(206e6, 0.65)).Total()
	if lo >= hi {
		t.Errorf("memory power did not drop with frequency: %g >= %g", lo, hi)
	}
	// Background power must persist at low frequency (DRAM can't gate it).
	if b := m.Power(use(206e6, 0.65)); b.Background < 0.3*m.Power(use(800e6, 1.2)).Background {
		t.Error("background power dropped too much with frequency")
	}
}

func TestMemPowerTrafficScaling(t *testing.T) {
	t.Parallel()
	m := DefaultMemModel()
	idle := m.Power(MemUsage{BusHz: 800e6, MCVolts: 1.2, BusyFrac: 0.1})
	busy := m.Power(MemUsage{BusHz: 800e6, MCVolts: 1.2, ReadRate: 3e8, WriteRate: 1e8,
		ActRate: 4e8, UtilBus: 0.9, BusyFrac: 1})
	if busy.Total() <= idle.Total()*1.5 {
		t.Errorf("busy memory %g W not well above idle %g W", busy.Total(), idle.Total())
	}
	if busy.Activate <= 0 || busy.ReadWrite <= 0 {
		t.Error("traffic components missing")
	}
	if idle.Activate != 0 || idle.ReadWrite != 0 {
		t.Error("idle memory should have zero activate/burst power")
	}
}

func TestMemPowerdownSavesBackground(t *testing.T) {
	t.Parallel()
	m := DefaultMemModel()
	busy := m.Power(MemUsage{BusHz: 800e6, MCVolts: 1.2, BusyFrac: 1})
	idle := m.Power(MemUsage{BusHz: 800e6, MCVolts: 1.2, BusyFrac: 0})
	if idle.Background >= busy.Background {
		t.Error("powerdown should reduce background power")
	}
}

func TestPLLRegAndMCBounds(t *testing.T) {
	t.Parallel()
	m := DefaultMemModel()
	max := m.Power(MemUsage{BusHz: 800e6, MCVolts: 1.2, UtilBus: 1, BusyFrac: 1})
	min := m.Power(MemUsage{BusHz: 0, MCVolts: 0.65, UtilBus: 0, BusyFrac: 0})
	// Paper: PLL/register 0.1..0.5 W per DIMM; MC 4.5..15 W.
	if got := max.PLLReg / float64(m.DIMMs); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("max PLL/reg per DIMM = %g, want 0.5", got)
	}
	if got := min.PLLReg / float64(m.DIMMs); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("min PLL/reg per DIMM = %g, want 0.1", got)
	}
	if math.Abs(max.MC-15) > 1e-9 {
		t.Errorf("max MC power = %g, want 15", max.MC)
	}
}

func TestDefaultSystemSplit(t *testing.T) {
	t.Parallel()
	s := DefaultSystem(16)
	cores := make([]CoreOp, 16)
	for i := range cores {
		cores[i] = CoreOp{Volts: 1.2, Hz: 4e9, IPS: 0.8 * 4e9, Mix: refMix()}
	}
	refRate := refUtilBus * 800e6
	u := MemUsage{BusHz: 800e6, MCVolts: 1.2, ReadRate: refRate * 0.75,
		WriteRate: refRate * 0.25, ActRate: refRate, UtilBus: refUtilBus, BusyFrac: refBusyFrac}
	sp := s.Total(cores, refRate, u)
	cpuFrac := (sp.CPU + sp.L2) / sp.Total
	memFrac := sp.Mem / sp.Total
	restFrac := sp.Rest / sp.Total
	if math.Abs(cpuFrac-0.6) > 0.005 || math.Abs(memFrac-0.3) > 0.005 || math.Abs(restFrac-0.1) > 0.005 {
		t.Errorf("split = %.3f/%.3f/%.3f, want 0.6/0.3/0.1 (total %.0f W)",
			cpuFrac, memFrac, restFrac, sp.Total)
	}
	t.Logf("calibrated system: total %.0f W = CPU %.0f + L2 %.0f + Mem %.0f + Rest %.0f",
		sp.Total, sp.CPU, sp.L2, sp.Mem, sp.Rest)
}

func TestCalibratedSystemRatios(t *testing.T) {
	t.Parallel()
	// Figure 12-13 knob: CPU:Mem = 1:2 must triple memory share vs 2:1.
	for _, tc := range []struct{ cpu, mem float64 }{{0.6, 0.3}, {0.45, 0.45}, {0.3, 0.6}} {
		s := CalibratedSystem(16, tc.cpu, tc.mem, 0.1)
		if s.MemScale <= 0 || s.Rest <= 0 {
			t.Errorf("CalibratedSystem(%v,%v): bad scales %+v", tc.cpu, tc.mem, s)
		}
	}
	a := CalibratedSystem(16, 0.6, 0.3, 0.1)
	b := CalibratedSystem(16, 0.3, 0.6, 0.1)
	if b.MemScale <= a.MemScale*3 {
		t.Errorf("1:2 MemScale %g should be > 4x the 2:1 MemScale %g", b.MemScale, a.MemScale)
	}
}

func TestSER(t *testing.T) {
	t.Parallel()
	if got := SER(1, 100, 1, 100); got != 1 {
		t.Errorf("SER identity = %g", got)
	}
	if got := SER(1.1, 80, 1.0, 100); math.Abs(got-0.88) > 1e-12 {
		t.Errorf("SER = %g, want 0.88", got)
	}
	if got := SER(1, 1, 0, 0); got != 1 {
		t.Errorf("SER with zero baseline = %g, want safe 1", got)
	}
}

// Property: every model is non-negative and monotone in its main driver.
func TestPowerProperties(t *testing.T) {
	t.Parallel()
	m := DefaultCoreModel()
	f := func(vRaw, fRaw, ipcRaw uint8) bool {
		v := 0.65 + float64(vRaw)/255.0*0.55
		hz := 2.2e9 + float64(fRaw)/255.0*1.8e9
		ips := float64(ipcRaw) / 255.0 * hz
		p := m.Power(v, hz, ips, refMix())
		return p > 0 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	mm := DefaultMemModel()
	g := func(fRaw, uRaw uint8) bool {
		hz := 200e6 + float64(fRaw)/255.0*600e6
		util := float64(uRaw) / 255.0
		b := mm.Power(MemUsage{BusHz: hz, MCVolts: 1.2, ReadRate: util * 8e8,
			ActRate: util * 8e8, UtilBus: util, BusyFrac: util})
		return b.Total() > 0 && !math.IsNaN(b.Total())
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// oneShotMemPower is MemModel.Power computed in one pass, every term from
// the usage at once: the form MemModel.At splits in two.
func oneShotMemPower(m MemModel, u MemUsage) Breakdown {
	fr := 0.0
	if m.FMax > 0 {
		fr = u.BusHz / m.FMax
	}
	vr := 1.0
	if m.VNomMC > 0 {
		vr = u.MCVolts / m.VNomMC
	}
	busy := clamp01(u.BusyFrac)
	util := clamp01(u.UtilBus)
	perDIMMBG := busy*m.PBGActive + (1-busy)*m.PBGPowerdown
	perDIMMBG *= (1 - m.BGFreqFrac) + m.BGFreqFrac*fr
	return Breakdown{Background: perDIMMBG * float64(m.DIMMs), Activate: m.EActivate * u.ActRate,
		ReadWrite: m.ERW * (u.ReadRate + u.WriteRate),
		PLLReg:    (m.PLLMin + m.PLLFreq*fr*vr*vr + m.RegUtil*util) * float64(m.DIMMs),
		MC:        (m.MCMin + m.MCSpan*util) * vr * vr * fr}
}

// TestTotalAtMatchesOneShotForm pins the memory step's terms computed once
// (MemModel.At, then Power, MemModel.TotalAt and System.TotalAt per traffic
// level) to the one-pass form, bit for bit, across steps, utilizations and
// traffic.
func TestTotalAtMatchesOneShotForm(t *testing.T) {
	t.Parallel()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	s := CalibratedSystem(16, 0.5, 0.4, 0.1)
	for _, hz := range []float64{200e6, 333e6, 800e6, 0} {
		volts := 0.65 + hz/800e6*0.55
		for _, util := range []float64{-0.1, 0, 0.3, 0.97, 1.5} {
			at := s.Mem.At(hz, volts, util)
			for _, rate := range []float64{0, 1e6, 3e8, 8e8} {
				for _, busy := range []float64{-1, 0, 0.4, 1, 2} {
					u := MemUsage{BusHz: hz, MCVolts: volts, ReadRate: rate * 0.8, WriteRate: rate * 0.2,
						ActRate: rate, UtilBus: util, BusyFrac: busy}
					got, want := s.Mem.Power(u), oneShotMemPower(s.Mem, u)
					if !same(got.Background, want.Background) || !same(got.Activate, want.Activate) ||
						!same(got.ReadWrite, want.ReadWrite) || !same(got.PLLReg, want.PLLReg) || !same(got.MC, want.MC) ||
						!same(s.Mem.TotalAt(at, u), want.Total()) {
						t.Fatalf("hz %g util %g rate %g busy %g: Power %+v, TotalAt %v, one pass %+v",
							hz, util, rate, busy, got, s.Mem.TotalAt(at, u), want)
					}
					cpu, l2 := 150+rate*1e-8, rate*2
					tot, split := s.TotalAt(at, cpu, l2, u), s.TotalFromCPU(cpu, l2, u)
					wantTot := cpu*s.CPUScale + s.L2.Power(l2)*s.CPUScale + want.Total()*s.MemScale + s.Rest
					if !same(tot, wantTot) || !same(split.Total, wantTot) {
						t.Fatalf("hz %g util %g rate %g busy %g: TotalAt %v, TotalFromCPU %v, one pass %v",
							hz, util, rate, busy, tot, split.Total, wantTot)
					}
				}
			}
		}
	}
}
