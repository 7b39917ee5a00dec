package main

// The fixed vocabulary of the benchmark: workload names, kernel names and
// every metric name with its unit. BENCHMARK.json at the repo root declares
// the same names (bench_test.go holds the two together); later issues cite
// them as `<metric>` on `<workload>`, so none of them may be renamed.

// kernelNames are the five kernels the benchmark binds to, in the order the
// per-kernel metric suffixes are declared.
var kernelNames = []string{"dotnorm", "escape", "powersum", "spmv", "stencil"}

// backend selects how a library workload lowers its kernels.
type backend int

const (
	backendGen    backend = iota // checked-in generated package (gen/kernels)
	backendInterp                // frontend closure interpreter
)

// workload is one fixed set of inputs. Library workloads call package hbc
// in-process from one closed-loop caller; serving workloads drive the real
// binaries over loopback HTTP.
type workload struct {
	name    string
	kernels []string
	backend backend // library workloads only
	serving bool
	router  bool // serving: requests go through hbcroute (closed loop)
	open    bool // serving: seeded Poisson arrivals instead of a closed loop
}

var workloads = []workload{
	{name: "lib-fine-gen", kernels: []string{"spmv", "powersum"}, backend: backendGen},
	{name: "lib-coarse-gen", kernels: []string{"escape", "stencil"}, backend: backendGen},
	{name: "lib-fine-interp", kernels: []string{"spmv", "powersum"}, backend: backendInterp},
	{name: "serve-closed", kernels: kernelNames, serving: true, router: true},
	{name: "serve-open", kernels: kernelNames, serving: true, open: true},
}

// quickWorkloads is the -quick selection: one workload per kind.
var quickWorkloads = []string{"lib-fine-gen", "serve-closed"}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDecl names one metric and its unit.
type metricDecl struct{ name, unit string }

// endToEnd are the metrics a user of the stack sees; each has a regression
// bound in BENCHMARK.json. They are measured with tracing off.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"runs_per_s", "1/s"},
	{"serial_ratio_x", "x"},
	{"cpu_ms_per_run", "ms"},
}

// failShare is reported with both kinds of run. It is declared per-layer in
// BENCHMARK.json because its healthy value is 0, which a relative bound
// cannot gate; -selfcheck gates it by an absolute difference instead.
var failShare = metricDecl{"fail_share", "share"}

// failShareBound is the absolute amount fail_share may differ between two
// runs of the same code.
const failShareBound = 0.001

// perLayer are the single-layer metrics of the traced run. A metric that
// does not apply to a workload (the router hop on a workload without a
// router) is printed as 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	perKernel := func(prefix, unit string) []metricDecl {
		var out []metricDecl
		for _, k := range kernelNames {
			out = append(out, metricDecl{prefix + k, unit})
		}
		return out
	}
	var d []metricDecl
	d = append(d,
		metricDecl{"frontend.parse_compile_ms", "ms"},
		metricDecl{"analysis.facts_ms", "ms"},
		metricDecl{"hbc.compile_load_ms", "ms"},
		metricDecl{"hbcserve.ready_ms", "ms"},
		metricDecl{"router.ready_ms", "ms"},
	)
	d = append(d, perKernel("core.serial_us.", "us")...)
	d = append(d,
		metricDecl{"core.machinery_pct", "%"},
		metricDecl{"core.chunking_pct", "%"},
		metricDecl{"pulse.polling_pct", "%"},
		metricDecl{"core.adaptive_pct", "%"},
		metricDecl{"core.promote_pct", "%"},
		metricDecl{"core.promotions_per_run", "count"},
		metricDecl{"core.promotions_outer_share", "share"},
		metricDecl{"core.leftover_runs_per_run", "count"},
		metricDecl{"core.tasks_forked_per_run", "count"},
		metricDecl{"hbc.parallel_gain_x", "x"},
		metricDecl{"pulse.polls_per_run", "count"},
		metricDecl{"pulse.detect_rate_pct", "%"},
		metricDecl{"pulse.lag_mean_us", "us"},
		metricDecl{"pulse.lag_max_us", "us"},
		metricDecl{"sched.spawned_per_run", "count"},
		metricDecl{"sched.steals_per_run", "count"},
		metricDecl{"sched.steal_latency_us", "us"},
		metricDecl{"sched.parks_per_run", "count"},
		metricDecl{"sched.wakes_per_run", "count"},
		metricDecl{"sched.task_pool_miss_share", "share"},
		metricDecl{"hbc.reset_us_p50", "us"},
	)
	d = append(d, perKernel("hbc.run_us_p50.", "us")...)
	d = append(d, perKernel("hbc.ratio_x.", "x")...)
	d = append(d,
		metricDecl{"hbc.allocs_per_run", "count"},
		metricDecl{"hbc.alloc_bytes_per_run", "bytes"},
		metricDecl{"serve.queue_wait_ms_p50", "ms"},
		metricDecl{"serve.queue_wait_ms_p90", "ms"},
		metricDecl{"serve.run_ms_p50", "ms"},
		metricDecl{"serve.run_ms_p90", "ms"},
		metricDecl{"serve.dispatch_us_p50", "us"},
		metricDecl{"serve.shed_share", "share"},
		metricDecl{"serve.expired_share", "share"},
		metricDecl{"serve.foreign_pop_share", "share"},
		metricDecl{"hbcserve.http_overhead_ms_p50", "ms"},
		metricDecl{"hbcserve.http_overhead_ms_p90", "ms"},
		metricDecl{"router.hop_ms_p50", "ms"},
		metricDecl{"router.hop_ms_p90", "ms"},
		metricDecl{"router.retries_per_req", "count"},
		metricDecl{"router.hedges_per_req", "count"},
		metricDecl{"client.late_ms_p90", "ms"},
		metricDecl{"client.lat_p99_ms", "ms"},
		metricDecl{"client.samples", "count"},
		metricDecl{"proc.cpu_ms_per_run.hbcserve", "ms"},
		metricDecl{"proc.cpu_ms_per_run.hbcroute", "ms"},
		metricDecl{"proc.cpu_ms_per_run.client", "ms"},
		metricDecl{"proc.peak_rss_mb.hbcserve", "MB"},
		metricDecl{"proc.peak_rss_mb.hbcroute", "MB"},
		metricDecl{"proc.peak_rss_mb.bench", "MB"},
		metricDecl{"trace.overhead_pct", "%"},
		failShare,
	)
	return d
}
