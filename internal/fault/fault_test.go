package fault

import (
	"errors"
	"testing"

	"coscale/internal/counters"
	"coscale/internal/trace"
)

func TestValidateRejectsBadFields(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"noise>1", Config{Counters: CounterFaults{Noise: 1.5}}},
		{"noise<0", Config{Counters: CounterFaults{Noise: -0.1}}},
		{"bias<=-1", Config{Counters: CounterFaults{Bias: -1}}},
		{"staleprob", Config{Counters: CounterFaults{StaleProb: 2}}},
		{"dropprob", Config{Counters: CounterFaults{DropProb: -0.5}}},
		{"actdrop", Config{Actuation: ActuationFaults{DropProb: 1.1}}},
		{"lag<0", Config{Actuation: ActuationFaults{LagEpochs: -1}}},
		{"lag>max", Config{Actuation: ActuationFaults{LagEpochs: MaxLagEpochs + 1}}},
		{"stuck-no-len", Config{Actuation: ActuationFaults{StuckProb: 0.1}}},
		{"stuck<0", Config{Actuation: ActuationFaults{StuckEpochs: -3}}},
		{"thermal-no-len", Config{Actuation: ActuationFaults{ThermalProb: 0.1}}},
		{"thermal-step<0", Config{Actuation: ActuationFaults{ThermalMinCoreStep: -1}}},
		{"powerbias", Config{PowerBias: -1}},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
		}
	}
	if err := (&Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestSplitmix64KnownValues(t *testing.T) {
	t.Parallel()
	// Reference outputs for seed 1234567 from the splitmix64 reference
	// implementation (Vigna), pinning the stream across refactors.
	r := trace.NewRand(1234567)
	want := []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Errorf("draw %d: got %#x, want %#x", i, got, w)
		}
	}
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64 draw %d outside [0,1): %g", i, f)
		}
	}
}

// fill sets every counter field to a recognizable non-zero baseline.
func fill(sys *counters.System, base uint64) {
	for i := range sys.Cores {
		c := &sys.Cores[i]
		c.Cycles, c.TIC, c.TMS, c.TLA, c.TLM, c.TLS = base, base, base, base, base, base
		c.ALUOps, c.FPUOps, c.Branches, c.LoadStores = base, base, base, base
		c.StallCyclesL2, c.StallCyclesMem = base, base
		c.L2Writebacks, c.PrefetchFills = base, base
	}
	for i := range sys.Channels {
		ch := &sys.Channels[i]
		ch.BusCycles, ch.Reads, ch.Writes, ch.Prefetches = base, base, base, base
		ch.ReadQueueOccupancy, ch.BankOccupancy, ch.BusBusyCycles, ch.LatencyCycles = base, base, base, base
		ch.RowHits, ch.RowMisses, ch.ActiveCycles, ch.IdleCycles = base, base, base, base
		ch.PageOpens, ch.PageCloses = base, base
	}
}

func TestZeroConfigIsIdentity(t *testing.T) {
	t.Parallel()
	inj, err := New(Config{Seed: 42}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := counters.NewSystem(2, 2)
	fill(sys, 1_000_000)
	var want counters.System
	sys.SnapshotInto(&want)
	inj.PerturbCounters(ProfileWindow, sys)
	inj.PerturbCounters(EpochWindow, sys)
	for i := range sys.Cores {
		if sys.Cores[i] != want.Cores[i] {
			t.Fatalf("core %d perturbed by zero config", i)
		}
	}
	for i := range sys.Channels {
		if sys.Channels[i] != want.Channels[i] {
			t.Fatalf("channel %d perturbed by zero config", i)
		}
	}
	req := []int{3, 5}
	cur := []int{1, 2}
	out, mem := inj.Actuate(req, 4, cur, 0)
	if out[0] != 3 || out[1] != 5 || mem != 4 {
		t.Fatalf("zero config altered actuation: got %v/%d", out, mem)
	}
}

func TestBiasScalesCounters(t *testing.T) {
	t.Parallel()
	inj, err := New(Config{Seed: 1, Counters: CounterFaults{Bias: 0.5}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := counters.NewSystem(1, 1)
	fill(sys, 1000)
	inj.PerturbCounters(ProfileWindow, sys)
	if got := sys.Cores[0].TIC; got != 1500 {
		t.Errorf("TIC: got %d, want 1500", got)
	}
	if got := sys.Channels[0].Reads; got != 1500 {
		t.Errorf("Reads: got %d, want 1500", got)
	}
}

func TestDeterministicReplayAfterReset(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Seed:      99,
		Counters:  CounterFaults{Noise: 0.2, StaleProb: 0.3, DropProb: 0.1},
		Actuation: ActuationFaults{DropProb: 0.2, LagEpochs: 2},
	}
	run := func(inj *Injector) []counters.System {
		var out []counters.System
		for epoch := 0; epoch < 20; epoch++ {
			sys := counters.NewSystem(2, 1)
			fill(sys, uint64(1000*(epoch+1)))
			inj.PerturbCounters(ProfileWindow, sys)
			cs, ms := inj.Actuate([]int{epoch % 3, epoch % 5}, epoch%4, []int{0, 0}, 0)
			sys.Cores[0].Cycles += uint64(cs[0]+cs[1]) + uint64(ms) // fold actuation into the fingerprint
			out = append(out, *sys)                                 // sys is fresh each epoch, so nothing aliases
		}
		return out
	}
	inj, err := New(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := run(inj)
	inj.Reset()
	second := run(inj)
	inj2, err := New(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	third := run(inj2)
	for e := range first {
		for i := range first[e].Cores {
			if first[e].Cores[i] != second[e].Cores[i] || first[e].Cores[i] != third[e].Cores[i] {
				t.Fatalf("epoch %d core %d diverged across replays", e, i)
			}
		}
	}
}

func TestStaleWindowRepeatsPreviousReading(t *testing.T) {
	t.Parallel()
	inj, err := New(Config{Seed: 7, Counters: CounterFaults{StaleProb: 1}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := counters.NewSystem(1, 1)
	fill(sys, 100)
	inj.PerturbCounters(ProfileWindow, sys) // first window can never be stale
	var first counters.System
	sys.SnapshotInto(&first)
	fill(sys, 999)
	inj.PerturbCounters(ProfileWindow, sys)
	if sys.Cores[0] != first.Cores[0] {
		t.Fatal("stale window did not repeat the previous reading")
	}
	if inj.Stats().StaleWindows != 1 {
		t.Fatalf("StaleWindows = %d, want 1", inj.Stats().StaleWindows)
	}
	// The epoch window has its own staleness track: its first reading is
	// fresh even though the profile window already went stale.
	fill(sys, 555)
	inj.PerturbCounters(EpochWindow, sys)
	if sys.Cores[0].TIC != 555 {
		t.Fatal("epoch window inherited the profile window's stale state")
	}
}

func TestDropZeroesWholeBlocks(t *testing.T) {
	t.Parallel()
	inj, err := New(Config{Seed: 3, Counters: CounterFaults{DropProb: 1}}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := counters.NewSystem(2, 2)
	fill(sys, 100)
	inj.PerturbCounters(ProfileWindow, sys)
	for i := range sys.Cores {
		if sys.Cores[i] != (counters.Core{}) {
			t.Fatalf("core %d not zeroed", i)
		}
	}
	for i := range sys.Channels {
		if sys.Channels[i] != (counters.Channel{}) {
			t.Fatalf("channel %d not zeroed", i)
		}
	}
	st := inj.Stats()
	if st.DroppedCores != 2 || st.DroppedChans != 2 {
		t.Fatalf("drop stats = %+v", st)
	}
}

func TestPowerBiasTouchesOnlyPowerCounters(t *testing.T) {
	t.Parallel()
	inj, err := New(Config{Seed: 5, PowerBias: 0.5}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := counters.NewSystem(1, 1)
	fill(sys, 1000)
	inj.PerturbCounters(ProfileWindow, sys)
	c := sys.Cores[0]
	if c.ALUOps != 1500 || c.FPUOps != 1500 || c.Branches != 1500 || c.LoadStores != 1500 {
		t.Errorf("activity counters not biased: %+v", c)
	}
	if c.TIC != 1000 || c.Cycles != 1000 || c.TLM != 1000 {
		t.Errorf("performance counters perturbed by power bias: %+v", c)
	}
	ch := sys.Channels[0]
	if ch.ActiveCycles != 1500 || ch.IdleCycles != 1500 {
		t.Errorf("channel power counters not biased: %+v", ch)
	}
	if ch.Reads != 1000 || ch.LatencyCycles != 1000 {
		t.Errorf("channel performance counters perturbed: %+v", ch)
	}
}

func TestActuationLagDeliversLate(t *testing.T) {
	t.Parallel()
	inj, err := New(Config{Seed: 11, Actuation: ActuationFaults{LagEpochs: 2}}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cur := []int{0, 0}
	reqs := [][]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}
	var got [][]int
	for i, rq := range reqs {
		cs, ms := inj.Actuate(rq, i+1, cur, 0)
		got = append(got, append([]int(nil), cs...))
		_ = ms
	}
	// Epochs 0-1: ring warming up, settings unchanged. Epoch k >= 2:
	// request from epoch k-2 delivered.
	want := [][]int{{0, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 3}}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("epoch %d: delivered %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestActuationStuckFreezesSettings(t *testing.T) {
	t.Parallel()
	inj, err := New(Config{Seed: 13, Actuation: ActuationFaults{StuckProb: 1, StuckEpochs: 3}}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cs, ms := inj.Actuate([]int{9}, 9, []int{2}, 2)
		if cs[0] != 2 || ms != 2 {
			t.Fatalf("epoch %d: stuck actuator applied the request (%v/%d)", i, cs, ms)
		}
	}
	if inj.Stats().StuckEvents < 1 {
		t.Fatal("no stuck events recorded")
	}
}

func TestThermalClampsCoreSteps(t *testing.T) {
	t.Parallel()
	inj, err := New(Config{Seed: 17, Actuation: ActuationFaults{
		ThermalProb: 1, ThermalEpochs: 2, ThermalMinCoreStep: 4}}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, ms := inj.Actuate([]int{0, 7}, 0, []int{0, 0}, 0)
	if cs[0] != 4 || cs[1] != 7 || ms != 0 {
		t.Fatalf("thermal clamp wrong: %v/%d", cs, ms)
	}
	if inj.Stats().ThermalEvents != 1 {
		t.Fatalf("ThermalEvents = %d, want 1", inj.Stats().ThermalEvents)
	}
}

func TestPerturbAndActuateDoNotAllocate(t *testing.T) {
	cfg := Config{
		Seed:      21,
		Counters:  CounterFaults{Noise: 0.1, Bias: 0.05, StaleProb: 0.2, DropProb: 0.05},
		Actuation: ActuationFaults{DropProb: 0.1, LagEpochs: 3, StuckProb: 0.01, StuckEpochs: 2, ThermalProb: 0.01, ThermalEpochs: 2, ThermalMinCoreStep: 3},
		PowerBias: 0.1,
	}
	inj, err := New(cfg, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys := counters.NewSystem(16, 4)
	req := make([]int, 16)
	cur := make([]int, 16)
	allocs := testing.AllocsPerRun(200, func() {
		fill(sys, 12345)
		inj.PerturbCounters(ProfileWindow, sys)
		inj.PerturbCounters(EpochWindow, sys)
		inj.Actuate(req, 1, cur, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocations per epoch = %v, want 0", allocs)
	}
}
