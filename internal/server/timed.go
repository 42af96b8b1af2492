package server

import (
	"time"

	"coscale/internal/policy"
)

// timedPolicy wraps a job's policy so every Decide call — one frequency
// search per epoch — feeds the server-wide search-duration summary exposed
// at /metrics (count, sum, max in nanoseconds). Timing wraps only the
// decision, not Observe's slack accounting, so the numbers line up with the
// §3.1 search-cost benchmarks.
type timedPolicy struct {
	inner policy.Policy
	m     *metrics
}

// timed wraps pol with decision timing. Oracle policies keep their
// OraclePolicy identity — the engine type-asserts it to switch to oracle
// observations, so a plain wrapper would silently change their behaviour.
func timed(pol policy.Policy, m *metrics) policy.Policy {
	tp := timedPolicy{inner: pol, m: m}
	if op, ok := pol.(policy.OraclePolicy); ok {
		return &timedOracle{tp, op}
	}
	return &tp
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) Decide(obs policy.Observation) policy.Decision {
	//lint:ignore dettaint wall time feeds only the search-latency metric; the decision is delegated unchanged
	start := time.Now()
	d := t.inner.Decide(obs)
	t.m.observeSearch(time.Since(start))
	return d
}

func (t *timedPolicy) Observe(epoch policy.Observation) { t.inner.Observe(epoch) }

// timedOracle carries the wrapped policy's OraclePolicy assertion through
// the timing wrapper.
type timedOracle struct {
	timedPolicy
	op policy.OraclePolicy
}

func (t *timedOracle) WantsOracle() bool { return t.op.WantsOracle() }
