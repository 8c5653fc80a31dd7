package main

// metricDef names one metric the benchmark reports.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline by which an end-to-end metric may
	// worsen before compare and selfcheck call it a regression; per-layer
	// metrics have none.
	bound float64
	// only lists the workloads the metric has a meaning on; nil means all.
	only []string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.only == nil {
		return true
	}
	for _, w := range m.only {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the engine sees, measured with
// tracing off. The first seven have a meaning on every workload and are
// the end_to_end list of BENCHMARK.json; the last three exist on one
// workload or are zero on a correct run, which that file's contract does
// not allow, so only this program's own report, selfcheck and compare use
// them (see README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "throughput_pkts_s", unit: "1/s", better: higher, bound: 0.20},
	{name: "latency_p50_ms", unit: "ms", better: lower, bound: 0.15},
	{name: "latency_p99_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "cpu_s_per_mpkt", unit: "s", better: lower, bound: 0.25},
	{name: "allocs_per_pkt", unit: "count", better: lower, bound: 0.05},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.25},
	{name: "recovery_time_ms", unit: "ms", better: lower, bound: 0.15, only: []string{"recovery_kill"}},
	{name: "checkpoint_pause_ms", unit: "ms", better: lower, bound: 0.15, only: []string{"recovery_kill"}},
	{name: "failed_share", unit: "share", better: lower, bound: 0}, // any increase is a regression
}

// universal reports whether an end-to-end metric can be in BENCHMARK.json:
// it has a meaning, and is never 0, on every workload.
func (m metricDef) universal() bool { return m.only == nil && m.name != "failed_share" }

// setupFloorS is the absolute change in setup_s below which selfcheck and
// compare do not call a regression: set-up is a few flush timers long and
// a scheduler tick moves it by more than its relative bound.
const setupFloorS = 0.020

// perLayer are the metrics of single layers, reported by the traced run.
// Kernels time a layer's exported functions alone on the workload's own
// packets; counts are read from the program's exported counters after the
// traced pass; spans come from the harness's wrappers around its own calls
// into the program. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{name: "packet.encode_ns_per_pkt", unit: "ns", better: lower},
	{name: "packet.decode_ns_per_pkt", unit: "ns", better: lower},
	{name: "packet.decode_allocs_per_pkt", unit: "count", better: lower},
	{name: "packet.wire_bytes_per_pkt", unit: "B", better: lower},
	{name: "pool.get_put_ns_per_pkt", unit: "ns", better: lower},
	{name: "pool.hit_rate", unit: "share", better: higher},
	{name: "buffer.add_ns_per_pkt", unit: "ns", better: lower},
	{name: "buffer.pkts_per_flush", unit: "count", better: higher},
	{name: "granules.notify_to_run_us_p50", unit: "us", better: lower},
	{name: "granules.exec_ns_per_task", unit: "ns", better: lower},
	{name: "granules.switches_per_kpkt", unit: "count", better: lower},
	{name: "backpressure.queue_push_pop_ns", unit: "ns", better: lower},
	{name: "backpressure.valve_closures", unit: "count", better: lower},
	{name: "source.blocked_share", unit: "share", better: lower},
	{name: "transport.inproc.send_ns_per_frame", unit: "ns", better: lower},
	{name: "transport.tcp.send_ns_per_frame", unit: "ns", better: lower},
	{name: "transport.tcp.mb_per_s", unit: "MB/s", better: higher},
	{name: "transport.resilient.send_ns_per_frame", unit: "ns", better: lower},
	{name: "transport.resilient.allocs_per_frame", unit: "count", better: lower},
	{name: "transport.wire_bytes_per_pkt", unit: "B", better: lower},
	{name: "transport.redelivered_frames", unit: "count", better: lower},
	{name: "transport.reconnects", unit: "count", better: lower},
	{name: "core.dispatch_ns_per_pkt", unit: "ns", better: lower},
	{name: "core.emit_ns_per_pkt", unit: "ns", better: lower},
	{name: "core.launch_ms", unit: "ms", better: lower},
	{name: "core.drain_ms", unit: "ms", better: lower},
	{name: "core.kill_to_restart_ms", unit: "ms", better: lower},
	{name: "core.restore_ms", unit: "ms", better: lower},
	{name: "core.replayed_pkts_per_kill", unit: "count", better: lower},
	{name: "recovery.time_ms", unit: "ms", better: lower},
	{name: "op.sender.busy_share", unit: "share", better: lower},
	{name: "op.relay.busy_share", unit: "share", better: lower},
	{name: "op.receiver.busy_share", unit: "share", better: lower},
	{name: "op.ingest.busy_share", unit: "share", better: lower},
	{name: "op.project.busy_share", unit: "share", better: lower},
	{name: "op.monitor.busy_share", unit: "share", better: lower},
	{name: "op.alerts.busy_share", unit: "share", better: lower},
	{name: "op.window.busy_share", unit: "share", better: lower},
	{name: "debs.observe_ns_per_pkt", unit: "ns", better: lower},
	{name: "window.add_ns", unit: "ns", better: lower},
	{name: "checkpoint.pause_ms", unit: "ms", better: lower},
	{name: "checkpoint.encode_us", unit: "us", better: lower},
	{name: "checkpoint.decode_us", unit: "us", better: lower},
	{name: "checkpoint.save_us.mem", unit: "us", better: lower},
	{name: "checkpoint.save_us.file", unit: "us", better: lower},
	{name: "checkpoint.bytes_per_epoch", unit: "B", better: lower},
	{name: "control.publish_ns", unit: "ns", better: lower},
	{name: "control.codec_ns", unit: "ns", better: lower},
	{name: "qos.escalations", unit: "count", better: lower},
	{name: "qos.relaxations", unit: "count", better: lower},
	{name: "qos.chained_links", unit: "count", better: higher},
	{name: "qos.converge_s", unit: "s", better: lower},
	{name: "runtime.gc_cpu_frac", unit: "share", better: lower},
	{name: "runtime.alloc_bytes_per_pkt", unit: "B", better: lower},
	{name: "runtime.heap_peak_mb", unit: "MB", better: lower},
	{name: "runtime.goroutines_peak", unit: "count", better: lower},
	{name: "gen.lag_p99_ms", unit: "ms", better: lower},
	{name: "gen.cpu_share", unit: "share", better: lower},
	{name: "trace.overhead_frac", unit: "share", better: lower},
}
