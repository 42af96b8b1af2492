// Package fault injects deterministic, seeded faults at the boundary between
// the simulated hardware substrate and the DVFS controllers: the performance
// counters a controller profiles, and the actuation path its frequency
// decisions travel through. Ground truth — the engine's own accumulation of
// instructions, energy and wall time — is never perturbed; only what the
// controller *sees* and what the actuator *applies* are.
//
// All randomness comes from a trace.Rand splitmix64 stream seeded by
// Config.Seed, so an identical (seed, scenario) pair replays an identical
// fault sequence and a simulation under injection stays bit-reproducible
// across runs and after Engine.Reset. The package is inside the determinism
// lint scope (internal/lint): no wall-clock reads, no global math/rand, no
// map iteration.
//
// The fault taxonomy follows the failure modes the CoScale paper's "model
// error" discussion and successor systems (FastCap, SysScale) treat as
// first-class: noisy/biased/stale/dropped counter readings, DVFS requests
// that are ignored, delayed, stuck or thermally clamped, and biased power
// estimates. See DESIGN.md §8.
package fault

import (
	"fmt"

	"coscale/internal/trace"
)

// Mix64 is trace.Mix64, the splitmix64 finalizer. It remains here for the
// load generator (internal/loadgen), a module of its own that calls it by
// this name.
func Mix64(x uint64) uint64 { return trace.Mix64(x) }

// ConfigError reports one rejected fault-configuration field.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("fault: invalid Config.%s: %s", e.Field, e.Reason)
}

// CounterFaults perturbs the counter deltas a controller derives its
// observations from. The zero value injects nothing.
type CounterFaults struct {
	// Noise is the amplitude of independent multiplicative noise applied
	// to every counter field: each field is scaled by 1 + Noise·U with U
	// uniform in [-1, 1). Models sampling jitter and read races in real
	// MSR-style counter drivers. Must be in [0, 1].
	Noise float64

	// Bias is a systematic multiplicative error applied to every counter
	// field (all fields scale by 1 + Bias). Models miscalibrated counters;
	// ratio-derived statistics cancel it, but absolute counts (committed
	// instructions, cycles) do not — which is exactly what corrupts slack
	// accounting. Must be > -1.
	Bias float64

	// StaleProb is the per-window probability that a reading repeats the
	// previous window's values verbatim (the driver returned cached
	// state). Must be in [0, 1].
	StaleProb float64

	// DropProb is the per-core (and per-channel) per-window probability
	// that a counter block reads all-zero (the sensor dropped out). Must
	// be in [0, 1].
	DropProb float64
}

// ActuationFaults perturbs the path between a controller's Decision and the
// frequencies actually installed. The zero value injects nothing.
type ActuationFaults struct {
	// DropProb is the per-epoch probability that the requested change is
	// silently ignored (settings stay as they were). Must be in [0, 1].
	DropProb float64

	// LagEpochs delays every request by N epochs (a slow voltage
	// regulator / PLL re-lock pipeline). Must be in [0, MaxLagEpochs].
	LagEpochs int

	// StuckProb is the per-epoch probability that the actuator freezes at
	// the current settings for StuckEpochs epochs. StuckEpochs must be
	// positive when StuckProb > 0.
	StuckProb   float64
	StuckEpochs int

	// ThermalProb is the per-epoch probability of a thermal-throttle
	// event: for ThermalEpochs epochs, core frequencies are clamped at or
	// below the ladder step ThermalMinCoreStep (steps count down from the
	// highest frequency, so the clamp forces step >= ThermalMinCoreStep).
	// ThermalEpochs must be positive when ThermalProb > 0.
	ThermalProb        float64
	ThermalEpochs      int
	ThermalMinCoreStep int
}

// MaxLagEpochs bounds ActuationFaults.LagEpochs (and the injector's
// preallocated request ring).
const MaxLagEpochs = 64

// Config is one fault scenario. The zero value (with any seed) injects
// nothing and is bit-identical to running without an injector at all.
type Config struct {
	// Seed seeds the scenario's private splitmix64 stream.
	Seed uint64

	// Counters perturbs profiled counter readings.
	Counters CounterFaults

	// Actuation perturbs applied DVFS decisions.
	Actuation ActuationFaults

	// PowerBias is a multiplicative error on the counters that feed only
	// the controller's power model (the per-class activity counters and
	// the DRAM active-cycle counter), biasing its power estimates while
	// leaving performance statistics untouched. Must be > -1.
	PowerBias float64
}

// IsZero reports whether the scenario (seed aside, the whole configuration)
// injects nothing — the identity configuration that is bit-identical to
// running without an injector. The serving layer canonicalizes zero
// scenarios to "no faults" so both spellings share one cache entry.
func (c *Config) IsZero() bool {
	cc := *c
	cc.Seed = 0
	return cc == Config{}
}

// prob validates a probability field.
func prob(field string, v float64) error {
	if v < 0 || v > 1 {
		return &ConfigError{Field: field, Reason: fmt.Sprintf("probability %g outside [0, 1]", v)}
	}
	return nil
}

// Validate checks the scenario's fields.
func (c *Config) Validate() error {
	if c.Counters.Noise < 0 || c.Counters.Noise > 1 {
		return &ConfigError{Field: "Counters.Noise", Reason: fmt.Sprintf("amplitude %g outside [0, 1]", c.Counters.Noise)}
	}
	if c.Counters.Bias <= -1 {
		return &ConfigError{Field: "Counters.Bias", Reason: fmt.Sprintf("multiplier 1%+g not positive", c.Counters.Bias)}
	}
	if err := prob("Counters.StaleProb", c.Counters.StaleProb); err != nil {
		return err
	}
	if err := prob("Counters.DropProb", c.Counters.DropProb); err != nil {
		return err
	}
	if err := prob("Actuation.DropProb", c.Actuation.DropProb); err != nil {
		return err
	}
	if c.Actuation.LagEpochs < 0 || c.Actuation.LagEpochs > MaxLagEpochs {
		return &ConfigError{Field: "Actuation.LagEpochs", Reason: fmt.Sprintf("%d outside [0, %d]", c.Actuation.LagEpochs, MaxLagEpochs)}
	}
	if err := prob("Actuation.StuckProb", c.Actuation.StuckProb); err != nil {
		return err
	}
	if c.Actuation.StuckProb > 0 && c.Actuation.StuckEpochs <= 0 {
		return &ConfigError{Field: "Actuation.StuckEpochs", Reason: "must be positive when StuckProb > 0"}
	}
	if c.Actuation.StuckEpochs < 0 {
		return &ConfigError{Field: "Actuation.StuckEpochs", Reason: "must be non-negative"}
	}
	if err := prob("Actuation.ThermalProb", c.Actuation.ThermalProb); err != nil {
		return err
	}
	if c.Actuation.ThermalProb > 0 && c.Actuation.ThermalEpochs <= 0 {
		return &ConfigError{Field: "Actuation.ThermalEpochs", Reason: "must be positive when ThermalProb > 0"}
	}
	if c.Actuation.ThermalEpochs < 0 {
		return &ConfigError{Field: "Actuation.ThermalEpochs", Reason: "must be non-negative"}
	}
	if c.Actuation.ThermalMinCoreStep < 0 {
		return &ConfigError{Field: "Actuation.ThermalMinCoreStep", Reason: "must be non-negative"}
	}
	if c.PowerBias <= -1 {
		return &ConfigError{Field: "PowerBias", Reason: fmt.Sprintf("multiplier 1%+g not positive", c.PowerBias)}
	}
	return nil
}
