package power

import "coscale/internal/trace"

// CoreOp is one core's operating point for power evaluation.
type CoreOp struct {
	Volts float64
	Hz    float64
	IPS   float64
	Mix   trace.InstrMix
}

// System composes the component models into the Eq. 3 full-system power.
// CPUScale and MemScale multiply the respective component powers (the
// Figure 12-13 CPU:Mem ratio knobs); Rest is the fixed
// P_NonCoreL2OrMem term.
type System struct {
	Core CoreModel
	L2   L2Model
	Mem  MemModel

	CPUScale float64 // multiplier on core power (default 1)
	MemScale float64 // multiplier on memory power (default 1)
	Rest     float64 // fixed rest-of-system power, W
}

// Split is a full-system power reading.
type Split struct {
	CPU   float64 // all cores
	L2    float64
	Mem   float64
	Rest  float64
	Total float64
}

// Total evaluates Eq. 3: fixed rest-of-system power, L2 power from its
// access rate, memory power at usage u, and the sum of per-core powers.
func (s System) Total(cores []CoreOp, l2AccessRate float64, u MemUsage) Split {
	var cpu float64
	for _, c := range cores {
		cpu += s.Core.Power(c.Volts, c.Hz, c.IPS, c.Mix)
	}
	return s.TotalFromCPU(cpu, l2AccessRate, u)
}

// TotalFromCPU is Total with the per-core power sum already accumulated by
// the caller — in ascending core order, matching Total's own loop, so a
// caller summing identical per-core terms (e.g. from a memoized CoreTable)
// gets a bit-identical Split. The search hot path uses it to skip the
// per-core model evaluation (see DESIGN.md §10).
//
//hot:path
func (s System) TotalFromCPU(cpu, l2AccessRate float64, u MemUsage) Split {
	cpuScale, memScale := s.scales()
	cpu *= cpuScale
	l2 := s.L2.Power(l2AccessRate) * cpuScale // L2 shares the CPU budget in the 60/30/10 split
	mem := s.Mem.Power(u).Total() * memScale
	out := Split{CPU: cpu, L2: l2, Mem: mem, Rest: s.Rest}
	out.Total = out.CPU + out.L2 + out.Mem + out.Rest
	return out
}

// TotalAt is TotalFromCPU(cpu, l2AccessRate, u).Total with the memory
// step's terms a from Mem.At, bit for bit: the same terms in the same order.
//
//hot:path
func (s *System) TotalAt(a MemAt, cpu, l2AccessRate float64, u MemUsage) float64 {
	cpuScale, memScale := s.scales()
	return cpu*cpuScale + s.L2.Power(l2AccessRate)*cpuScale + s.Mem.TotalAt(a, u)*memScale + s.Rest
}

// scales returns CPUScale and MemScale, each 1 when unset.
func (s *System) scales() (cpu, mem float64) {
	cpu, mem = s.CPUScale, s.MemScale
	if cpu <= 0 {
		cpu = 1
	}
	if mem <= 0 {
		mem = 1
	}
	return cpu, mem
}

// Reference operating point used for calibration: all cores at maximum
// frequency committing 0.8 IPC of a floating-point-heavy mix; memory at
// maximum frequency with moderate-high traffic.
const (
	refIPC      = 0.8
	refUtilBus  = 0.45
	refBusyFrac = 0.9
)

func refMix() trace.InstrMix {
	return trace.InstrMix{ALU: 0.26, FPU: 0.30, Branch: 0.10, LoadStore: 0.32}
}

// DefaultSystem returns the calibrated default system: at the reference
// operating point the split is exactly cpuFrac:memFrac:restFrac of total
// power, with the paper's defaults cpuFrac=0.6, memFrac=0.3, restFrac=0.1.
// Use CalibratedSystem to choose other splits (Figures 11-13).
func DefaultSystem(nCores int) System {
	return CalibratedSystem(nCores, 0.6, 0.3, 0.1)
}

// CalibratedSystem builds a System whose CPU (cores+L2), memory and
// rest-of-system powers stand in the ratio cpuFrac:memFrac:restFrac at the
// reference operating point, holding the CPU-side absolute power at its
// default-model value. Fractions must be positive and are normalized to
// sum to 1.
func CalibratedSystem(nCores int, cpuFrac, memFrac, restFrac float64) System {
	total := cpuFrac + memFrac + restFrac
	cpuFrac, memFrac, restFrac = cpuFrac/total, memFrac/total, restFrac/total

	s := System{Core: DefaultCoreModel(), L2: DefaultL2Model(), Mem: DefaultMemModel(),
		CPUScale: 1, MemScale: 1}

	// Evaluate raw component powers at the reference point.
	cores := make([]CoreOp, nCores)
	for i := range cores {
		cores[i] = CoreOp{Volts: s.Core.VNom, Hz: s.Core.FNom, IPS: refIPC * s.Core.FNom, Mix: refMix()}
	}
	// Reference memory traffic consistent with refUtilBus on the default
	// geometry: util = rate/chan * SBus -> rate = util * 4 chan * f/4.
	refRate := refUtilBus * 4 * s.Mem.FMax / 4
	refUsage := MemUsage{BusHz: s.Mem.FMax, MCVolts: s.Mem.VNomMC,
		ReadRate: refRate * 0.75, WriteRate: refRate * 0.25, ActRate: refRate,
		UtilBus: refUtilBus, BusyFrac: refBusyFrac}

	rawCPU := 0.0
	for _, c := range cores {
		rawCPU += s.Core.Power(c.Volts, c.Hz, c.IPS, c.Mix)
	}
	rawCPU += s.L2.Power(refRate) // L2 access rate ≈ memory rate at reference
	rawMem := s.Mem.Power(refUsage).Total()

	// Hold CPU absolute power; scale memory and rest to meet the split.
	targetTotal := rawCPU / cpuFrac
	s.MemScale = targetTotal * memFrac / rawMem
	s.Rest = targetTotal * restFrac
	return s
}

// SER computes the system energy ratio of Eq. 2: predicted epoch time×power
// at a candidate setting over time×power at the baseline (maximum
// frequencies).
func SER(tCandidate, pCandidate, tBase, pBase float64) float64 {
	if tBase <= 0 || pBase <= 0 {
		return 1
	}
	return (tCandidate * pCandidate) / (tBase * pBase)
}
