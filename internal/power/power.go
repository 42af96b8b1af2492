// Package power implements the full-system energy model of §3.3 (Eq. 2-3):
//
//	P = P_NonCoreL2OrMem + P_L2 + P_Mem(f_mem) + Σ P_Core_i(f_core_i)
//
// Core power follows the activity-factor approach of the paper's references
// (Bellosa; Isci & Martonosi): per-instruction-class event energies scaled by
// V², plus clock/pipeline power proportional to V²·f, plus leakage roughly
// proportional to V. Memory power follows Micron's DDR3 power methodology:
// per-rank background (standby/powerdown), activate-precharge energy,
// read/write burst energy, plus PLL/register devices (0.1-0.5 W per DIMM;
// PLL scales with frequency and voltage, register with utilization) and the
// on-chip memory controller (4.5-15 W, linear in utilization, scaled by its
// own V²·f since it shares the cores' voltage range).
//
// Absolute constants are calibrated so the default system splits
// CPU:Mem:Rest ≈ 60:30:10 at maximum frequencies under a representative
// load, matching the paper's baseline (§4.1); the Figure 11-13 knobs
// (RestFraction, CPUScale/MemScale) re-weight those shares.
package power

import "coscale/internal/trace"

// CoreModel computes one core's power.
type CoreModel struct {
	VNom float64 // voltage at which event energies are specified (1.2 V)
	FNom float64 // nominal frequency for the clock-power term (4 GHz)

	// Per-instruction energies in joules at VNom; scaled by (V/VNom)^2.
	EBase      float64 // fetch/decode/retire energy common to every instruction
	EALU       float64
	EFPU       float64
	EBranch    float64
	ELoadStore float64

	// PClock is clock-tree + pipeline overhead power at (VNom, FNom),
	// scaling as V^2·f regardless of IPC.
	PClock float64
	// PLeak is leakage power at VNom, scaling linearly with V.
	PLeak float64
}

// DefaultCoreModel returns per-core constants yielding ≈13.7 W per core at
// 4 GHz / 1.2 V with IPC 0.8 on a floating-point mix (≈220 W for 16 cores).
func DefaultCoreModel() CoreModel {
	return CoreModel{
		VNom:       1.2,
		FNom:       4e9,
		EBase:      1.2e-9,
		EALU:       0.8e-9,
		EFPU:       2.4e-9,
		EBranch:    0.6e-9,
		ELoadStore: 1.6e-9,
		PClock:     4.0,
		PLeak:      1.75,
	}
}

// EnergyPerInstr returns the dynamic energy of one committed instruction at
// voltage v for the given instruction-class mix.
func (m CoreModel) EnergyPerInstr(v float64, mix trace.InstrMix) float64 {
	e := m.EBase + m.EALU*mix.ALU + m.EFPU*mix.FPU + m.EBranch*mix.Branch + m.ELoadStore*mix.LoadStore
	s := v / m.VNom
	return e * s * s
}

// Power returns the core's power at voltage v, frequency hz, committing ips
// instructions per second with the given mix.
func (m CoreModel) Power(v, hz, ips float64, mix trace.InstrMix) float64 {
	s := v / m.VNom
	dynClock := m.PClock * s * s * (hz / m.FNom)
	dynInstr := m.EnergyPerInstr(v, mix) * ips
	leak := m.PLeak * s
	return dynClock + dynInstr + leak
}

// L2Model computes the shared L2 power: leakage (its domain does not scale)
// plus access energy.
type L2Model struct {
	PLeak   float64 // W
	EAccess float64 // J per access
}

// DefaultL2Model returns constants for the 16 MB shared LLC (≈18 W leakage
// plus ≈2 W dynamic under load).
func DefaultL2Model() L2Model {
	return L2Model{PLeak: 18, EAccess: 2e-9}
}

// Power returns L2 power at the given access rate (accesses per second).
func (m L2Model) Power(accessRate float64) float64 {
	return m.PLeak + m.EAccess*accessRate
}

// MemUsage describes the memory subsystem's operating point for power
// purposes: everything the two MemScale power counters per channel provide.
type MemUsage struct {
	BusHz     float64 // memory bus frequency
	MCVolts   float64 // memory controller voltage (shares the core range)
	ReadRate  float64 // 64 B reads (incl. prefetch fills) per second, all channels
	WriteRate float64 // 64 B writebacks per second, all channels
	ActRate   float64 // row activates per second (== accesses under closed-page)
	UtilBus   float64 // data bus utilization [0,1]
	BusyFrac  float64 // fraction of time ranks are kept out of powerdown
}

// MemModel computes memory subsystem power.
type MemModel struct {
	DIMMs  int
	FMax   float64 // 800 MHz
	VNomMC float64 // 1.2 V

	// Per-DIMM background power in watts: active-standby when busy,
	// precharge-powerdown when idle, with a portion scaling with clock.
	PBGActive    float64
	PBGPowerdown float64
	BGFreqFrac   float64 // fraction of background power that scales with f/FMax

	EActivate float64 // J per activate-precharge pair (whole rank)
	ERW       float64 // J per 64 B transfer incl. I/O and termination

	// PLL/register per DIMM: PLLMin + PLLFreq·(f/FMax)·(V-ratio)^2 + Reg·util.
	PLLMin, PLLFreq, RegUtil float64

	// Memory controller: (MCMin + MCSpan·util) · (V/VNomMC)^2 · (f_mc/f_mcMax).
	MCMin, MCSpan float64
}

// DefaultMemModel returns constants for 8 registered dual-rank ECC DIMMs
// yielding ≈110 W at 800 MHz under heavy traffic.
func DefaultMemModel() MemModel {
	return MemModel{
		DIMMs:        8,
		PBGActive:    8.5,
		PBGPowerdown: 6.5,
		BGFreqFrac:   0.7,
		FMax:         800e6,
		VNomMC:       1.2,
		EActivate:    15e-9,
		ERW:          12e-9,
		PLLMin:       0.1,
		PLLFreq:      0.15,
		RegUtil:      0.25,
		MCMin:        4.5,
		MCSpan:       10.5,
	}
}

// Breakdown is the memory power decomposition.
type Breakdown struct {
	Background float64
	Activate   float64
	ReadWrite  float64
	PLLReg     float64
	MC         float64
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.Background + b.Activate + b.ReadWrite + b.PLLReg + b.MC
}

// Power returns the memory subsystem power and its breakdown at usage u.
func (m MemModel) Power(u MemUsage) Breakdown {
	a := m.At(u.BusHz, u.MCVolts, u.UtilBus)
	return Breakdown{Background: m.background(a, u.BusyFrac), Activate: m.EActivate * u.ActRate,
		ReadWrite: m.ERW * (u.ReadRate + u.WriteRate), PLLReg: a.pll, MC: a.mc}
}

// MemAt holds Power's terms of bus frequency, controller voltage and utilization.
type MemAt struct{ bgScale, pll, mc float64 }

// At computes a memory step's MemAt.
func (m MemModel) At(busHz, mcVolts, utilBus float64) MemAt {
	fr := 0.0
	if m.FMax > 0 {
		fr = busHz / m.FMax
	}
	vr := 1.0
	if m.VNomMC > 0 {
		vr = mcVolts / m.VNomMC
	}
	util := clamp01(utilBus)
	return MemAt{bgScale: (1 - m.BGFreqFrac) + m.BGFreqFrac*fr,
		pll: (m.PLLMin + m.PLLFreq*fr*vr*vr + m.RegUtil*util) * float64(m.DIMMs),
		mc:  (m.MCMin + m.MCSpan*util) * vr * vr * fr}
}

// TotalAt is Power(u).Total() at the step a was computed for, bit for bit:
// the same terms, summed in Breakdown.Total's order. u's BusHz, MCVolts and
// UtilBus are not read.
//
//hot:path
func (m *MemModel) TotalAt(a MemAt, u MemUsage) float64 {
	return m.background(a, u.BusyFrac) + m.EActivate*u.ActRate + m.ERW*(u.ReadRate+u.WriteRate) + a.pll + a.mc
}

func (m *MemModel) background(a MemAt, busyFrac float64) float64 {
	busy := clamp01(busyFrac)
	return (busy*m.PBGActive + (1-busy)*m.PBGPowerdown) * a.bgScale * float64(m.DIMMs)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
