package main

// metricDef names one reported metric with its unit and the direction in
// which it is better. BENCHMARK.json at the repository root lists the same
// metrics; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run (--trace 0).
var endToEnd = []metricDef{
	{"virt_MBps", "MB/s", "higher"},     // payload / virtual seconds, median over calls
	{"host_ms_p50", "ms", "lower"},      // host wall ms per collective call
	{"host_ms_p90", "ms", "lower"},      //
	{"host_MBps", "MB/s", "higher"},     // payload per host second over the loop
	{"allocs_per_op", "count", "lower"}, // heap allocations per call
	{"alloc_B_per_op", "B", "lower"},    // heap bytes allocated per call
	{"peak_rss_MB", "MB", "lower"},      // peak resident memory of the process
	{"setup_s", "s", "lower"},           // median set-up time up to the first measured call
	{"ok_frac", "fraction", "higher"},   // calls that succeeded and verified / attempted
}

// perLayer are the traced run's metrics (--trace 1). Counts come from the
// untraced counts pass, *_cp_ms from the critical path of the traced
// pass, *.cpu_frac from its CPU profile, span.* from its host spans.
var perLayer = []metricDef{
	{"core.req_B_per_op", "B", "lower"},
	{"core.pairs_per_op", "count", "lower"},
	{"core.rounds_per_op", "count", "lower"},
	{"core.memo_hit_frac", "fraction", "higher"},
	{"core.flatten_cp_ms", "virt_ms", "lower"},
	{"core.exchange_cp_ms", "virt_ms", "lower"},
	{"core.comm_cp_ms", "virt_ms", "lower"},
	{"core.cpu_frac", "fraction", "lower"},
	{"datatype.segs_per_op", "count", "lower"},
	{"datatype.flat_B_per_op", "B", "lower"},
	{"datatype.cpu_frac", "fraction", "lower"},
	{"realm.misaligned_frac", "fraction", "lower"},
	{"realm.agg_imbalance", "ratio", "lower"},
	{"realm.cpu_frac", "fraction", "lower"},
	{"mpi.msgs_per_op", "count", "lower"},
	{"mpi.B_per_op", "B", "lower"},
	{"mpi.internode_frac", "fraction", "lower"},
	{"mpi.transfer_cp_ms", "virt_ms", "lower"},
	{"mpi.rendezvous_cp_ms", "virt_ms", "lower"},
	{"mpi.cpu_frac", "fraction", "lower"},
	{"mpiio.sieve_amp", "ratio", "lower"},
	{"mpiio.copy_cp_ms", "virt_ms", "lower"},
	{"mpiio.self_ms", "ms", "lower"},
	{"mpiio.cpu_frac", "fraction", "lower"},
	{"pfs.io_calls_per_op", "count", "lower"},
	{"pfs.io_B_per_op", "B", "lower"},
	{"pfs.lock_grants_per_op", "count", "lower"},
	{"pfs.lock_revokes_per_op", "count", "lower"},
	{"pfs.stripe_conflicts_per_op", "count", "lower"},
	{"pfs.rmw_pages_per_op", "count", "lower"},
	{"pfs.ost_busy_frac", "fraction", "lower"},
	{"pfs.cache_hit_frac", "fraction", "higher"},
	{"pfs.io_cp_ms", "virt_ms", "lower"},
	{"pfs.ost_service_ms", "virt_ms", "lower"},
	{"pfs.cpu_frac", "fraction", "lower"},
	{"integrity.hash_ns_per_KiB", "ns/KiB", "lower"},
	{"integrity.cpu_frac", "fraction", "lower"},
	{"bufpool.miss_frac", "fraction", "lower"},
	{"bufpool.cpu_frac", "fraction", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"telemetry.cpu_frac", "fraction", "lower"},
	{"telemetry.trace_overhead_frac", "fraction", "lower"},
	{"telemetry.critpath_cover", "fraction", "higher"},
	{"telemetry.trace_dropped", "count", "lower"},
	{"other.cpu_frac", "fraction", "lower"},
	{"span.view_ms", "ms", "lower"},
	{"span.setview_ms", "ms", "lower"},
	{"span.collective_ms", "ms", "lower"},
	{"span.core_ms", "ms", "lower"},
	{"span.verify_ms", "ms", "lower"},
}

// cpuLayers are the layers the traced run's CPU profile is split across;
// a sample goes to the layer of its innermost flexio/internal frame.
var cpuLayers = []string{"core", "datatype", "realm", "mpi", "mpiio", "pfs", "integrity", "bufpool", "telemetry", "other"}

// layerOf maps a flexio/internal package to its reported layer.
func layerOf(pkg string) string {
	switch pkg {
	case "trace", "metrics", "stats", "critpath":
		return "telemetry"
	case "core", "datatype", "realm", "mpi", "mpiio", "pfs", "integrity", "bufpool":
		return pkg
	}
	return "other"
}

// cpPhases maps critical-path phases to their per-layer metric.
var cpPhases = map[string]string{
	"flatten":    "core.flatten_cp_ms",
	"exchange":   "core.exchange_cp_ms",
	"comm":       "core.comm_cp_ms",
	"transfer":   "mpi.transfer_cp_ms",
	"rendezvous": "mpi.rendezvous_cp_ms",
	"copy":       "mpiio.copy_cp_ms",
	"io":         "pfs.io_cp_ms",
}
