package main

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units and directions; a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero
	// for per-layer metrics, which carry no bound.
	Bound float64
}

// endToEnd is what a user of the simulator, the service or the fleet
// sees. Every workload reports every one of them; "operation" means
// one simulation (fig4-seq), one request (serve-cached) or one sweep
// job (fleet-cold, fleet-disk).
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"ops_ok_frac", "ratio", "higher", 0.01},
}

// perLayer is the traced run's breakdown, keyed by the repository's
// modules. Every traced run reports every name; a layer a workload
// never reaches reads 0 there (its shares and counts), while the
// microbenchmarks (suffix _ns, _us or _ms and named for an exported
// call) run in every traced run.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.host_ns_per_event", "ns", "lower", 0},
	{"sim.self_share", "share", "lower", 0},
	{"sim.schedule_step_ns", "ns", "lower", 0},

	{"coherence.requests", "count", "lower", 0},
	{"coherence.check_s", "s", "lower", 0},
	{"coherence.self_share", "share", "lower", 0},

	{"gpu.global_load_lines", "count", "lower", 0},
	{"gpu.l1_mshr_stalls", "count", "lower", 0},
	{"gpu.self_share", "share", "lower", 0},
	{"cpu.self_share", "share", "lower", 0},

	{"cache.gpu_l2_accesses", "count", "lower", 0},
	{"cache.gpu_l2_miss_rate", "ratio", "lower", 0},
	{"cache.self_share", "share", "lower", 0},
	{"cache.lookup_hit_ns", "ns", "lower", 0},
	{"cache.lookup_miss_ns", "ns", "lower", 0},

	{"mmu.self_share", "share", "lower", 0},
	{"mmu.translate_hit_ns", "ns", "lower", 0},
	{"mmu.translate_walk_ns", "ns", "lower", 0},

	{"interconnect.xbar_msgs", "count", "lower", 0},
	{"interconnect.xbar_bytes", "bytes", "lower", 0},
	{"interconnect.direct_bytes", "bytes", "lower", 0},
	{"interconnect.self_share", "share", "lower", 0},
	{"interconnect.xbar_send_ns", "ns", "lower", 0},

	{"dram.accesses", "count", "lower", 0},
	{"dram.row_hit_rate", "ratio", "higher", 0},
	{"dram.self_share", "share", "lower", 0},
	{"dram.row_hit_ns", "ns", "lower", 0},
	{"dram.row_miss_ns", "ns", "lower", 0},

	{"core.new_system_s", "s", "lower", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.produce_s", "s", "lower", 0},
	{"bench.kernel_s", "s", "lower", 0},

	{"runtime.self_share", "share", "lower", 0},
	{"runtime.alloc_mb", "MiB", "lower", 0},

	{"snap.snapshot_ms", "ms", "lower", 0},
	{"snap.restore_ms", "ms", "lower", 0},
	{"snap.bytes", "bytes", "lower", 0},
	{"snap.hit_ratio", "ratio", "higher", 0},

	{"serve.spec_id_ns", "ns", "lower", 0},
	{"serve.encode_result_ns", "ns", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.self_share", "share", "lower", 0},
	{"http.self_share", "share", "lower", 0},
	{"json.self_share", "share", "lower", 0},
	{"sha256.self_share", "share", "lower", 0},

	{"store.put_ms", "ms", "lower", 0},
	{"store.get_us", "us", "lower", 0},
	{"store.open_s", "s", "lower", 0},
	{"store.wal_append_ms", "ms", "lower", 0},
	{"store.disk_writes", "count", "lower", 0},
	{"store.disk_hits", "count", "higher", 0},
	{"store.self_share", "share", "lower", 0},
	{"syscall.self_share", "share", "lower", 0},

	{"fleet.expand_self_ms", "ms", "lower", 0},
	{"fleet.dispatch_self_ms", "ms", "lower", 0},
	{"fleet.backoff_self_ms", "ms", "lower", 0},
	{"fleet.queue-wait_self_ms", "ms", "lower", 0},
	{"fleet.cache-lookup_self_ms", "ms", "lower", 0},
	{"fleet.snapshot_self_ms", "ms", "lower", 0},
	{"fleet.simulate_self_ms", "ms", "lower", 0},
	{"fleet.verify_self_ms", "ms", "lower", 0},
	{"fleet.journal-append_self_ms", "ms", "lower", 0},
	{"fleet.dispatch_attempts", "count", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"fleet.cached_dispatch_ratio", "ratio", "higher", 0},

	{"dtrace.trace_overhead", "ratio", "lower", 0},
	{"dtrace.spans_dropped", "count", "lower", 0},

	{"other.self_share", "share", "lower", 0},
}

// shareBuckets folds CPU-profile packages into the per-layer shares.
// A package matches a bucket when it equals one of the prefixes or
// starts with prefix + "/". Packages matching no bucket land in
// other.self_share, so the shares always sum to 1.
var shareBuckets = []struct {
	metric   string
	prefixes []string
}{
	{"sim.self_share", []string{"dstore/internal/sim"}},
	{"coherence.self_share", []string{"dstore/internal/coherence"}},
	{"gpu.self_share", []string{"dstore/internal/gpu"}},
	{"cpu.self_share", []string{"dstore/internal/cpu"}},
	{"cache.self_share", []string{"dstore/internal/cache"}},
	{"mmu.self_share", []string{"dstore/internal/mmu"}},
	{"interconnect.self_share", []string{"dstore/internal/interconnect"}},
	{"dram.self_share", []string{"dstore/internal/dram"}},
	{"serve.self_share", []string{"dstore/internal/serve"}},
	{"store.self_share", []string{"dstore/internal/store"}},
	{"http.self_share", []string{"net/http"}},
	{"json.self_share", []string{"encoding/json"}},
	{"sha256.self_share", []string{"crypto/sha256", "crypto/internal/fips140/sha256"}},
	{"syscall.self_share", []string{"syscall", "internal/runtime/syscall", "internal/syscall/unix"}},
	// Listed after syscall so internal/runtime/syscall stays there.
	{"runtime.self_share", []string{"runtime", "internal/runtime"}},
}
