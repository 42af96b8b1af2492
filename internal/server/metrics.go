package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyWindow bounds the sample set behind the p50/p99 job-latency
// quantiles: a ring of the most recent completions, large enough for stable
// percentiles and small enough to sort at scrape time.
const latencyWindow = 512

// metrics aggregates the serving counters exposed at /metrics. Counters are
// atomics (written from workers and handlers); the latency ring has its own
// lock.
type metrics struct {
	queued  atomic.Int64 // gauge: jobs admitted, not yet started
	running atomic.Int64 // gauge: jobs executing on a worker

	done      atomic.Int64 // terminal counts
	failed    atomic.Int64
	cancelled atomic.Int64

	rejected atomic.Int64 // 429s from a full queue
	deduped  atomic.Int64 // requests attached to an in-flight identical job

	streamsDropped atomic.Int64 // NDJSON streams cut by the write deadline

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	epochs atomic.Int64 // engine epochs simulated by this process

	// Power-cap state published by the fleet agent's budget hook
	// (Server.SetPowerCap): this worker's assigned slice and the fleet
	// budget it came from, stored as Float64bits, plus a counter of
	// assignments that actually changed the slice.
	capAssignedBits atomic.Uint64
	capBudgetBits   atomic.Uint64
	capRebalances   atomic.Int64

	// Per-decision search cost across every policy run this process has
	// executed (timedPolicy feeds these): call count, summed and maximum
	// Decide duration. sum/count is the mean; max is the tail spike.
	searchCount atomic.Int64
	searchSumNs atomic.Int64
	searchMaxNs atomic.Int64

	mu        sync.Mutex
	latencies [latencyWindow]float64 // seconds, ring buffer
	latN      int                    // total samples ever recorded
}

// observeLatency records one completed job's wall-clock latency.
func (m *metrics) observeLatency(d time.Duration) {
	m.mu.Lock()
	m.latencies[m.latN%latencyWindow] = d.Seconds()
	m.latN++
	m.mu.Unlock()
}

// observeSearch records one policy decision's search duration. The maximum
// is a compare-and-swap high-water mark: concurrent workers race the update,
// and a loser retries only while its sample still exceeds the current max.
func (m *metrics) observeSearch(d time.Duration) {
	ns := d.Nanoseconds()
	m.searchCount.Add(1)
	m.searchSumNs.Add(ns)
	for {
		cur := m.searchMaxNs.Load()
		if ns <= cur || m.searchMaxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// quantiles returns the p50 and p99 job latency over the retained window
// (zeros when nothing has completed yet).
func (m *metrics) quantiles() (p50, p99 float64) {
	m.mu.Lock()
	n := m.latN
	if n > latencyWindow {
		n = latencyWindow
	}
	buf := make([]float64, n)
	copy(buf, m.latencies[:n])
	m.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(buf)
	q := func(p float64) float64 {
		i := int(p * float64(n-1))
		return buf[i]
	}
	return q(0.50), q(0.99)
}

// write renders the plaintext exposition format: one "name value" line per
// metric, Prometheus-compatible without client libraries. tablesBuilds and
// tablesHits come from the runner's shared platform-table cache
// (policy.TableCache.Stats) — the one serving counter not owned by this
// struct, passed in at scrape time.
func (m *metrics) write(w io.Writer, uptime time.Duration, tablesBuilds, tablesHits int64) {
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	epochs := m.epochs.Load()
	eps := 0.0
	if s := uptime.Seconds(); s > 0 {
		eps = float64(epochs) / s
	}
	p50, p99 := m.quantiles()

	fmt.Fprintf(w, "coscale_jobs_queued %d\n", m.queued.Load())
	fmt.Fprintf(w, "coscale_jobs_running %d\n", m.running.Load())
	fmt.Fprintf(w, "coscale_jobs_done_total %d\n", m.done.Load())
	fmt.Fprintf(w, "coscale_jobs_failed_total %d\n", m.failed.Load())
	fmt.Fprintf(w, "coscale_jobs_cancelled_total %d\n", m.cancelled.Load())
	fmt.Fprintf(w, "coscale_jobs_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "coscale_jobs_deduped_total %d\n", m.deduped.Load())
	fmt.Fprintf(w, "coscale_streams_dropped_total %d\n", m.streamsDropped.Load())
	fmt.Fprintf(w, "coscale_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "coscale_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "coscale_cache_hit_rate %g\n", hitRate)
	fmt.Fprintf(w, "coscale_tables_builds_total %d\n", tablesBuilds)
	fmt.Fprintf(w, "coscale_tables_cache_hits_total %d\n", tablesHits)
	fmt.Fprintf(w, "coscale_job_latency_seconds{quantile=\"0.5\"} %g\n", p50)
	fmt.Fprintf(w, "coscale_job_latency_seconds{quantile=\"0.99\"} %g\n", p99)
	fmt.Fprintf(w, "coscale_search_decisions_total %d\n", m.searchCount.Load())
	fmt.Fprintf(w, "coscale_search_duration_ns_sum %d\n", m.searchSumNs.Load())
	fmt.Fprintf(w, "coscale_search_duration_ns_max %d\n", m.searchMaxNs.Load())
	fmt.Fprintf(w, "coscale_epochs_simulated_total %d\n", epochs)
	fmt.Fprintf(w, "coscale_epochs_per_second %g\n", eps)
	fmt.Fprintf(w, "coscale_powercap_budget_watts %g\n", math.Float64frombits(m.capBudgetBits.Load()))
	fmt.Fprintf(w, "coscale_powercap_assigned_watts %g\n", math.Float64frombits(m.capAssignedBits.Load()))
	fmt.Fprintf(w, "coscale_powercap_rebalances_total %d\n", m.capRebalances.Load())
	fmt.Fprintf(w, "coscale_uptime_seconds %g\n", uptime.Seconds())
}
