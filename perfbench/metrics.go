package main

// metricDef is one named metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names and units (a test keeps them in
// step).
type metricDef struct {
	name string
	unit string
	// on lists the workloads where the metric measures something; on the
	// others its layer is absent from the stack and it reads 0.
	on []string
}

var allWorkloads = []string{wlSimFio, wlSimKV, wlLiveTCP}

var (
	sims     = []string{wlSimFio, wlSimKV}
	fioOnly  = []string{wlSimFio}
	kvOnly   = []string{wlSimKV}
	liveOnly = []string{wlLiveTCP}
)

// endToEnd are the metrics of the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", allWorkloads},
	{"setup_s", "s", allWorkloads},
	{"lat_p50_us", "us", allWorkloads},
	{"peak_rss_mb", "MB", allWorkloads},
}

// perLayer are the metrics of the traced run (--trace 1).
var perLayer = []metricDef{
	{"lat_p99_us", "us", allWorkloads},
	{"sim.events", "count", sims},
	{"sim.events_per_op", "events/op", sims},
	{"sim.ns_per_event", "ns", sims},
	{"sim.proc_handoff_ns", "ns", kvOnly},
	{"sim.timer_late_us_p50", "us", liveOnly},
	{"sim.timer_late_us_p99", "us", liveOnly},
	{"sim.timers_per_io", "timers/io", liveOnly},
	{"core.enqueue_ns", "ns", allWorkloads},
	{"core.queue_wait_us_p50", "us", liveOnly},
	{"core.queue_wait_us_p99", "us", liveOnly},
	{"core.credit_p50", "count", liveOnly},
	{"core.credit_min", "count", liveOnly},
	{"core.dip_s", "s", liveOnly},
	{"ssd.submit_ns", "ns", allWorkloads},
	{"ssd.ios_per_op", "ios/op", allWorkloads},
	{"ssd.gc_moved_pages", "count", sims},
	{"ssd.write_amp", "ratio", allWorkloads},
	{"ssd.service_us_p50", "us", liveOnly},
	{"ssd.service_us_p99", "us", liveOnly},
	{"tier.hit_ratio", "ratio", fioOnly},
	{"tier.writeback_ratio", "ratio", fioOnly},
	{"tier.destage_mb", "MB", fioOnly},
	{"tier.submit_ns", "ns", fioOnly},
	{"fabric.submit_ns", "ns", sims},
	{"fabric.rx_frames", "count", liveOnly},
	{"fabric.tx_frames", "count", liveOnly},
	{"client.rsp_per_read", "rsp/read", liveOnly},
	{"client.cpu_share", "ratio", liveOnly},
	{"client.syscalls_per_io", "calls/io", liveOnly},
	{"kvstore.cache_hit_ratio", "ratio", kvOnly},
	{"kvstore.block_reads_per_get", "reads/get", kvOnly},
	{"kvstore.write_amp", "ratio", kvOnly},
	{"kvstore.compacted_mb", "MB", kvOnly},
	{"kvstore.residual_ns_per_op", "ns", kvOnly},
	{"blobstore.ios_per_op", "ios/op", kvOnly},
	{"obs.spans_captured_per_kio", "spans/kio", liveOnly},
	{"go.alloc_b_per_op", "B/op", allWorkloads},
	{"go.gc_cpu_frac", "ratio", allWorkloads},
	{"trace.overhead_pct", "%", allWorkloads},
	{"err_frac", "ratio", allWorkloads},
}

func (m metricDef) measuredOn(wl string) bool {
	for _, w := range m.on {
		if w == wl {
			return true
		}
	}
	return false
}
