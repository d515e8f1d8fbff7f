package main

// metricDef declares a reported metric and its unit. The two tables
// must match BENCHMARK.json's end_to_end and per_layer lists; a test
// holds them together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs (--trace 0). Every
// workload reports every one; README.md says what each means on each
// workload.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "frac"},
	{"mean_jct_slots", "slots"},
	{"ack_p50_ms", "ms"},
	{"ack_p90_ms", "ms"},
	{"status_p50_ms", "ms"},
	{"status_p90_ms", "ms"},
}

// perLayer are the metrics of traced runs (--trace 1), named
// <layer>.<metric> after the repository's packages, plus loadgen (the
// benchmark's request generator), runtime (the Go allocator and GC)
// and tracing (the cost of the spans themselves). A layer that does no
// work on a workload reports 0.
var perLayer = []metricDef{
	{"trace.decode_ns_per_job", "ns"},
	{"trace.bytes_per_job", "B"},
	{"sim.inject_ns_per_job", "ns"},
	{"sim.step_self_ns_per_job", "ns"},
	{"sim.steps", "count"},
	{"sim.pending_peak", "count"},
	{"sim.copies_per_task", "count"},
	{"core.schedule_ns_per_job", "ns"},
	{"core.schedule_us_p50", "us"},
	{"core.schedule_us_tail", "us"},
	{"core.schedule_tail_pct", "%"},
	{"core.on_arrival_ns_per_job", "ns"},
	{"core.calls", "count"},
	{"core.placements_per_call", "count"},
	{"core.empty_call_frac", "frac"},
	{"core.clone_placement_frac", "frac"},
	{"shard.submit_us_p50", "us"},
	{"shard.submit_us_p99", "us"},
	{"shard.submit_n", "count"},
	{"shard.job_us_p50", "us"},
	{"shard.job_us_p99", "us"},
	{"shard.job_n", "count"},
	{"http.submit_self_us_p50", "us"},
	{"client.retries", "count"},
	{"service.rejected_frac", "frac"},
	{"journal.records_per_job", "count"},
	{"journal.bytes_per_job", "B"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.ack_p99_ms", "ms"},
	{"loadgen.status_p99_ms", "ms"},
	{"loadgen.ack_n", "count"},
	{"loadgen.status_n", "count"},
	{"runtime.mallocs_per_job", "count"},
	{"runtime.alloc_bytes_per_job", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"tracing.overhead_frac", "frac"},
}

var metricUnits = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func newResult(trace bool) *result {
	r := &result{Correct: true, Metrics: make(map[string]metric)}
	if trace {
		// Layers a workload does not exercise report 0.
		for _, d := range perLayer {
			r.set(d.name, 0)
		}
	}
	return r
}

// setLatency reports the end-to-end ack and status latencies in ms.
func (r *result) setLatency(ack, status latency) {
	r.set("ack_p50_ms", ack.p50/1e6)
	r.set("ack_p90_ms", ack.p90/1e6)
	r.set("status_p50_ms", status.p50/1e6)
	r.set("status_p90_ms", status.p90/1e6)
}

// setLatencyTails reports the latency 99th percentiles and sample
// counts. They are per-layer figures: on a shared VM the 99th
// percentile moves by half between runs of one seed, too much to gate.
func (r *result) setLatencyTails(ack, status latency) {
	r.set("loadgen.ack_p99_ms", ack.p99/1e6)
	r.set("loadgen.status_p99_ms", status.p99/1e6)
	r.set("loadgen.ack_n", float64(ack.n))
	r.set("loadgen.status_n", float64(status.n))
}

// setRuntime reports allocator and GC work per job.
func (r *result) setRuntime(rt runtimeCounters, jobs float64) {
	r.set("runtime.mallocs_per_job", rt.mallocs/jobs)
	r.set("runtime.alloc_bytes_per_job", rt.allocBytes/jobs)
	if rt.totalCPU > 0 {
		r.set("runtime.gc_cpu_frac", rt.gcCPU/rt.totalCPU)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
