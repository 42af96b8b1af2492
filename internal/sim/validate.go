package sim

import (
	"errors"
	"fmt"

	"coscale/internal/freq"
)

// ErrInvalidConfig is the sentinel every configuration-validation error
// matches via errors.Is, so callers can branch on "bad config" without
// enumerating field-specific *ConfigError values.
var ErrInvalidConfig = errors.New("sim: invalid configuration")

// ConfigError reports one rejected Config field. It unwraps to
// ErrInvalidConfig.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid Config.%s: %s", e.Field, e.Reason)
}

// Is reports whether target is ErrInvalidConfig, making every field error
// match the sentinel.
func (e *ConfigError) Is(target error) bool { return target == ErrInvalidConfig }

// validateRaw rejects fields that are nonsensical even before defaulting.
// Zero values are legal everywhere (they select the paper's defaults);
// negative or out-of-range values are configuration bugs and must not be
// silently "defaulted over".
func (c Config) validateRaw() error {
	if c.Gamma < 0 || c.Gamma > 1 {
		return &ConfigError{Field: "Gamma", Reason: fmt.Sprintf("bound %g outside [0, 1] (0 selects the default 0.10)", c.Gamma)}
	}
	if c.EpochLen < 0 {
		return &ConfigError{Field: "EpochLen", Reason: "must be non-negative"}
	}
	if c.ProfileLen < 0 {
		return &ConfigError{Field: "ProfileLen", Reason: "must be non-negative"}
	}
	if c.MaxEpochs < 0 {
		return &ConfigError{Field: "MaxEpochs", Reason: "must be non-negative"}
	}
	if c.MigrateEvery < 0 {
		return &ConfigError{Field: "MigrateEvery", Reason: "must be non-negative"}
	}
	return nil
}

// validate checks the fully defaulted configuration: relational constraints
// between windows, ladder well-formedness, memory-system shape and the fault
// scenario.
func (c Config) validate() error {
	if c.Mix.Cores() == 0 {
		return &ConfigError{Field: "Mix", Reason: "requires a workload mix with at least one application"}
	}
	if c.ProfileLen >= c.EpochLen {
		return &ConfigError{Field: "ProfileLen",
			Reason: fmt.Sprintf("profiling window %v must be shorter than the epoch %v", c.ProfileLen, c.EpochLen)}
	}
	if err := validateLadder("CoreLadder", c.CoreLadder); err != nil {
		return err
	}
	if err := validateLadder("MemLadder", c.MemLadder); err != nil {
		return err
	}
	if c.Mem.Channels <= 0 {
		return &ConfigError{Field: "Mem.Channels", Reason: "must be positive"}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return &ConfigError{Field: "Faults", Reason: err.Error()}
		}
	}
	return nil
}

// validateLadder rejects ladders the control loop cannot reason about: every
// point needs positive frequency and voltage, and steps must be strictly
// decreasing in frequency (step 0 is max; duplicate or reordered frequencies
// break Nearest and the policies' step arithmetic).
func validateLadder(field string, l *freq.Ladder) error {
	if l == nil || l.Steps() == 0 {
		return &ConfigError{Field: field, Reason: "ladder has no steps"}
	}
	pts := l.Points()
	for i, p := range pts {
		if p.Hz <= 0 {
			return &ConfigError{Field: field, Reason: fmt.Sprintf("step %d has non-positive frequency %g Hz", i, p.Hz)}
		}
		if p.Volts <= 0 {
			return &ConfigError{Field: field, Reason: fmt.Sprintf("step %d has non-positive voltage %g V", i, p.Volts)}
		}
		if i > 0 && p.Hz >= pts[i-1].Hz {
			return &ConfigError{Field: field,
				Reason: fmt.Sprintf("frequencies must be strictly decreasing: step %d (%g Hz) >= step %d (%g Hz)", i, p.Hz, i-1, pts[i-1].Hz)}
		}
	}
	return nil
}
