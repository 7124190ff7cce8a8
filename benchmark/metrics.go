package benchmark

import "strings"

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every untraced run reports.  What an "op" is
// depends on the workload (README.md): one compile, one simulation, one
// HTTP request or one job.  Set-up times and the latencies of all but
// serve-mixed are scaled to the defining host (ruler.go).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_cycles", "cycles", "lower"},
}

// perLayer are the metrics every traced run reports, one group per
// layer of the system.
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"minic.parse_ms", "ms", "lower"},
		{"minic.allocs", "count", "lower"},
		{"acode.gen_ms", "ms", "lower"},
		{"acode.instrs", "count", "lower"},
		{"opt.pipeline_ms", "ms", "lower"},
		{"opt.parallel_ms", "ms", "lower"},
		{"opt.fixpoint_rounds", "count", "lower"},
		{"opt.instrs", "count", "lower"},
		{"opt.allocs", "count", "lower"},
	}
	for _, p := range pipelinePasses(3) {
		specs = append(specs,
			metricSpec{"opt.pass." + p + "_ms", "ms", "lower"},
			metricSpec{"opt.pass." + p + "_fires", "count", "higher"})
	}
	specs = append(specs,
		metricSpec{"rtl.listing_ms", "ms", "lower"},
		metricSpec{"sim.link_us", "us", "lower"},
		metricSpec{"sim.fingerprint_us", "us", "lower"},
		metricSpec{"sim.acquire_us", "us", "lower"},
		metricSpec{"sim.translate_cold_ms", "ms", "lower"},
		metricSpec{"sim.run_minstr_per_s", "Minstr/s", "higher"},
		metricSpec{"sim.reference_minstr_per_s", "Minstr/s", "higher"},
		metricSpec{"sim.run_allocs", "count", "lower"},
		metricSpec{"sim.trace_overhead_x", "x", "lower"},
	)
	for _, s := range suite() {
		specs = append(specs, metricSpec{"sim.cycles." + s.name, "cycles", "lower"})
	}
	for _, u := range stallUnits {
		specs = append(specs, metricSpec{"sim." + u + "_stall_pct", "%", "lower"})
	}
	return append(specs,
		metricSpec{"serve.hit_us", "us", "lower"},
		metricSpec{"serve.http_us", "us", "lower"},
		metricSpec{"serve.miss_compile_ms", "ms", "lower"},
		metricSpec{"serve.miss_run_ms", "ms", "lower"},
		metricSpec{"serve.hit_ratio", "ratio", "higher"},
		metricSpec{"serve.coalesced_ratio", "ratio", "higher"},
		metricSpec{"serve.compiles_per_req", "count", "lower"},
		metricSpec{"serve.sims_per_req", "count", "lower"},
		metricSpec{"serve.queue_wait_ms", "ms", "lower"},
		metricSpec{"serve.shed_ratio", "ratio", "lower"},
		metricSpec{"serve.hit_allocs", "count", "lower"},
		metricSpec{"serve.job_submit_ms", "ms", "lower"},
		metricSpec{"serve.job_polls_per_job", "count", "lower"},
		metricSpec{"serve.job_compiles_per_job", "count", "lower"},
		metricSpec{"serve.job_sims_per_job", "count", "lower"},
		metricSpec{"obs.trace_overhead_pct", "%", "lower"},
		metricSpec{"cluster.forward_hop_ms", "ms", "lower"},
		metricSpec{"loadgen.late_p50_ms", "ms", "lower"},
		metricSpec{"loadgen.late_p99_ms", "ms", "lower"},
		metricSpec{"go.gc_cpu_pct", "%", "lower"},
		metricSpec{"bench.trace_overhead_pct", "%", "lower"},
		metricSpec{"bench.span_cover_pct", "%", "higher"},
	)
}

// stallUnits are the unit groups the stall percentages report; "scu"
// sums the stream control units.
var stallUnits = []string{"ifu", "ieu", "feu", "scu"}

// exact reports whether a metric is a deterministic count: the same
// code must reproduce it bit for bit on any seed.
func exact(name string) bool {
	switch name {
	case "sim_cycles", "acode.instrs", "opt.instrs", "opt.fixpoint_rounds":
		return true
	}
	return strings.HasPrefix(name, "sim.cycles.") ||
		strings.HasSuffix(name, "_fires") ||
		strings.HasSuffix(name, "_stall_pct")
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer()...) {
		m[s.Name] = s.Unit
	}
	return m
}()
