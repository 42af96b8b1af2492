package server

import (
	"strings"
	"testing"
	"time"

	"coscale/internal/policy"
)

// countingPolicy is a Policy stub recording delegation.
type countingPolicy struct {
	decides  int
	observes int
	oracle   bool
}

func (p *countingPolicy) Name() string { return "stub" }
func (p *countingPolicy) Decide(policy.Observation) policy.Decision {
	p.decides++
	return policy.Decision{}
}
func (p *countingPolicy) Observe(policy.Observation) { p.observes++ }
func (p *countingPolicy) WantsOracle() bool          { return p.oracle }

// plainPolicy hides WantsOracle so timed() sees a non-oracle policy.
type plainPolicy struct{ inner *countingPolicy }

func (p plainPolicy) Name() string                                { return p.inner.Name() }
func (p plainPolicy) Decide(o policy.Observation) policy.Decision { return p.inner.Decide(o) }
func (p plainPolicy) Observe(o policy.Observation)                { p.inner.Observe(o) }

func TestTimedPolicyFeedsSearchMetrics(t *testing.T) {
	var m metrics
	stub := &countingPolicy{}
	tp := timed(plainPolicy{stub}, &m)
	if _, ok := tp.(policy.OraclePolicy); ok {
		t.Fatal("wrapping a plain policy must not invent an oracle")
	}
	if tp.Name() != "stub" {
		t.Errorf("Name() = %q, want stub (results key on the inner policy's name)", tp.Name())
	}
	for i := 0; i < 5; i++ {
		tp.Decide(policy.Observation{})
	}
	tp.Observe(policy.Observation{})
	if stub.decides != 5 || stub.observes != 1 {
		t.Errorf("delegation: %d decides, %d observes, want 5 and 1", stub.decides, stub.observes)
	}
	if got := m.searchCount.Load(); got != 5 {
		t.Errorf("searchCount = %d, want 5", got)
	}
	if sum, max := m.searchSumNs.Load(), m.searchMaxNs.Load(); max > sum {
		t.Errorf("searchMaxNs %d exceeds searchSumNs %d", max, sum)
	}
}

func TestTimedPolicyPreservesOracle(t *testing.T) {
	var m metrics
	stub := &countingPolicy{oracle: true}
	tp := timed(stub, &m)
	op, ok := tp.(policy.OraclePolicy)
	if !ok || !op.WantsOracle() {
		t.Fatal("timing an oracle policy must keep WantsOracle visible to the engine")
	}
	tp.Decide(policy.Observation{})
	if stub.decides != 1 || m.searchCount.Load() != 1 {
		t.Errorf("oracle wrapper: %d decides, %d samples, want 1 and 1", stub.decides, m.searchCount.Load())
	}
}

func TestObserveSearchHighWaterMark(t *testing.T) {
	var m metrics
	for _, d := range []time.Duration{3 * time.Microsecond, 9 * time.Microsecond, 4 * time.Microsecond} {
		m.observeSearch(d)
	}
	if got := m.searchMaxNs.Load(); got != 9000 {
		t.Errorf("searchMaxNs = %d, want 9000", got)
	}
	if got := m.searchSumNs.Load(); got != 16000 {
		t.Errorf("searchSumNs = %d, want 16000", got)
	}
	var sb strings.Builder
	m.write(&sb, time.Second, 0, 0)
	out := sb.String()
	for _, want := range []string{
		"coscale_search_decisions_total 3\n",
		"coscale_search_duration_ns_sum 16000\n",
		"coscale_search_duration_ns_max 9000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics output missing %q:\n%s", want, out)
		}
	}
}
