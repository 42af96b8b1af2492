package loadgen

// MetricDef names one reported metric, its unit and which direction is
// better. BENCHMARK.json lists the same names and units (a test keeps the
// two in step) and adds each end-to-end metric's regression bound.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd is what a user of the system sees, reported by untraced runs on
// every workload. The op is one request (serve-closed), one sweep makespan
// (sweep-fleet), one Decide+Observe (control-1024) or one rebalancing epoch
// (powercap-fleet).
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"goodput_ops", "1/s", "higher"},
	{"mem_rss_mb", "MB", "lower"},
	{"energy_savings_pct", "%", "higher"},
	{"worst_slowdown_pct", "%", "lower"},
}

// PerLayer is reported by traced runs, named <module>.<what>. A layer a
// workload bypasses reads 0 there.
var PerLayer = []MetricDef{
	{"loadgen.sent", "count", "higher"},
	{"loadgen.gap_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.op_ms_p50", "ms", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
	{"server.overhead_ms_p50", "ms", "lower"},
	{"server.job_ms_p50", "ms", "lower"},
	{"server.job_ms_p99", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.deduped", "count", "higher"},
	{"server.rejected", "count", "lower"},
	{"server.stream_lines", "count", "higher"},
	{"experiments.baseline_runs", "count", "lower"},
	{"experiments.baseline_ms_p50", "ms", "lower"},
	{"policy.new_us_p50", "us", "lower"},
	{"policy.tables_builds", "count", "lower"},
	{"policy.tables_hits", "count", "higher"},
	{"policy.evaluate_us_p50", "us", "lower"},
	{"policy.decide_us_p50.MemScale", "us", "lower"},
	{"policy.decide_us_p50.CPUOnly", "us", "lower"},
	{"policy.decide_us_p50.Uncoordinated", "us", "lower"},
	{"policy.decide_us_p50.Semi-coordinated", "us", "lower"},
	{"policy.decide_us_p50.Offline", "us", "lower"},
	{"sim.run_ms_p50", "ms", "lower"},
	{"sim.run_ms_p99", "ms", "lower"},
	{"sim.self_us_per_epoch", "us/epoch", "lower"},
	{"sim.epochs_per_op", "count/op", "lower"},
	{"sim.minstr_per_host_s", "Minstr/s", "higher"},
	{"sim.epochs_total", "count", "higher"},
	{"core.decide_us_p50", "us", "lower"},
	{"core.decide_us_p99", "us", "lower"},
	{"core.observe_us_p50", "us", "lower"},
	{"core.moves_per_decide", "count/op", "lower"},
	{"core.core_evals_per_decide", "count/op", "lower"},
	{"core.ns_per_move", "ns", "lower"},
	{"core.search_share", "ratio", "lower"},
	{"core.powercap_decide_us_p50", "us", "lower"},
	{"core.powercap_decide_us_p90", "us", "lower"},
	{"fastcap.build_ms_p50", "ms", "lower"},
	{"fastcap.allocate_us_p50", "us", "lower"},
	{"fastcap.frontier_points_mean", "count", "lower"},
	{"fastcap.clamped", "count", "lower"},
	{"fastcap.rebalances", "count", "lower"},
	{"fleet.submit_ms_p50", "ms", "lower"},
	{"fleet.lease_ms_p50", "ms", "lower"},
	{"fleet.lease_ms_p99", "ms", "lower"},
	{"fleet.worker_idle_frac", "ratio", "lower"},
	{"fleet.dispatched", "count", "lower"},
	{"fleet.retried", "count", "lower"},
	{"fleet.duplicates", "count", "lower"},
	{"fleet.journal_bytes_per_sweep", "B/op", "lower"},
	{"runtime.alloc_mb_per_op", "MB/op", "lower"},
	{"runtime.gc_cycles_per_s", "1/s", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
}

// units maps every catalogued metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range list {
			m[d.Name] = d.Unit
		}
	}
	return m
}()
