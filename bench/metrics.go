package main

// The benchmark's vocabulary: every workload and metric name lives here
// once, and BENCHMARK.json at the repository root mirrors these tables
// (TestBenchmarkJSONMatchesCode keeps the two from drifting).

// metricDef is one named metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of goofi sees, measured on untraced runs of
// the real binaries. Every workload reports all of them. The four timings
// are reported at reference host speed (hostspeed.go) because the sandbox
// this was sized on is a shared host whose speed moves by 30-70% in
// phases of minutes; what is left after that is 2-17% from run to run,
// and the bounds on them are the widest the contract allows (README.md,
// "Steadiness").
var endToEnd = []metricDef{
	// n / wall seconds from exec of `goofi run` (or `goofi submit`) to
	// exit (or job state done and workers exited): DB open, plan,
	// reference, experiments, sink close and final compaction included.
	{"exp_per_s", "1/s", "higher", 0.25},
	// user+sys CPU seconds over every process of the run per 1,000
	// experiments: the "per core" half of the north-star unit.
	{"cpu_s_per_kexp", "s", "lower", 0.25},
	// wall of `goofi analyze` / `goofi results` on the finished store.
	{"analyze_s", "s", "lower", 0.25},
	// configure + setup (+ daemon boot to /healthz, ptrace probe).
	{"setup_s", "s", "lower", 0.25},
	// sum of peak resident set sizes over the run's processes.
	{"peak_rss_mb", "MB", "lower", 0.20},
	// bytes on disk in all stores of the run after it ends, per experiment.
	{"disk_bytes_per_exp", "B", "lower", 0.20},
}

// perLayer is the traced run's decomposition. Scenario metrics come
// from the workload's own in-process traced campaign; kernel metrics
// (marked "kernel" in README.md) are workload-independent and run in
// every traced invocation so that each name always carries a measured
// value.
var perLayer = []metricDef{
	// core: the scheduler around the target and the sink.
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reference_ms", Unit: "ms", Better: "lower"},
	{Name: "core.exp_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.exp_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "core.sched_self_us_per_exp", Unit: "us", Better: "lower"},
	// target: the five phases of an experiment, each a group of Fig 3
	// abstract methods. On thor workloads reset and to_injection are
	// scifi (restore + prefix re-emulation), inject and observe are
	// scan-chain shifting (scanchain, with faultmodel's flip in between),
	// run is thor; on proc-matmul they are proctarget's spawn,
	// single-step, ptrace poke, run to exit and output compare.
	{Name: "target.reset_us_per_exp", Unit: "us", Better: "lower"},
	{Name: "target.to_injection_us_per_exp", Unit: "us", Better: "lower"},
	{Name: "target.inject_us_per_exp", Unit: "us", Better: "lower"},
	{Name: "target.run_us_per_exp", Unit: "us", Better: "lower"},
	{Name: "target.observe_us_per_exp", Unit: "us", Better: "lower"},
	// Work counts from the modules' own counters (exact for a seed).
	{Name: "scifi.restores_per_exp", Unit: "count", Better: "higher"},
	{Name: "scanchain.bits_per_exp", Unit: "bits", Better: "lower"},
	{Name: "scanchain.exchanges_per_exp", Unit: "count", Better: "lower"},
	{Name: "proctarget.singlesteps_per_exp", Unit: "count", Better: "lower"},
	{Name: "thor.cycles_per_exp", Unit: "cycles", Better: "lower"},
	{Name: "thor.cycles_saved_per_exp", Unit: "cycles", Better: "higher"},
	{Name: "thor.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "thor.kernel_mcycles_per_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "thor.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "thor.restore_us", Unit: "us", Better: "lower"},
	// campaign: record encoding, the batching sink and the cursor.
	{Name: "campaign.sink_log_us_per_exp", Unit: "us", Better: "lower"},
	{Name: "campaign.sink_checkpoint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "campaign.sink_checkpoint_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "campaign.sink_checkpoint_us_per_exp", Unit: "us", Better: "lower"},
	{Name: "campaign.rows_per_batch", Unit: "rows", Better: "higher"},
	{Name: "campaign.cursor_bytes_at_n", Unit: "B", Better: "lower"},
	{Name: "campaign.encode_insert_us_per_row", Unit: "us", Better: "lower"},
	{Name: "campaign.sink_checkpoint_us_per_exp_2k", Unit: "us", Better: "lower"},
	{Name: "campaign.sink_checkpoint_us_per_exp_20k", Unit: "us", Better: "lower"},
	{Name: "campaign.cursor_growth_ratio", Unit: "ratio", Better: "lower"},
	// sqldb: the engine and its write-ahead log.
	{Name: "sqldb.wal_bytes_per_exp", Unit: "B", Better: "lower"},
	{Name: "sqldb.wal_records_per_exp", Unit: "count", Better: "lower"},
	{Name: "sqldb.barriers_per_kexp", Unit: "count", Better: "lower"},
	{Name: "sqldb.insert_s_per_kexp", Unit: "s", Better: "lower"},
	{Name: "sqldb.barrier_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sqldb.barrier_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "sqldb.checkpoint_ms_at_n", Unit: "ms", Better: "lower"},
	{Name: "sqldb.open_ms_at_n", Unit: "ms", Better: "lower"},
	{Name: "sqldb.wal_bytes_per_exp_2k", Unit: "B", Better: "lower"},
	{Name: "sqldb.wal_bytes_per_exp_20k", Unit: "B", Better: "lower"},
	{Name: "analysis.classify_ms_at_n", Unit: "ms", Better: "lower"},
	// server + shard: transport and merge of the sharded path.
	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.coordinator_cpu_s_per_kexp", Unit: "s", Better: "lower"},
	{Name: "shard.worker_cpu_s_per_kexp", Unit: "s", Better: "lower"},
	{Name: "shard.wire_bytes_per_exp", Unit: "B", Better: "lower"},
	{Name: "shard.calls_per_kexp", Unit: "count", Better: "lower"},
	{Name: "shard.report_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.report_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "shard.retries_per_kexp", Unit: "count", Better: "lower"},
	// The tracing itself.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.attributed_frac", Unit: "ratio", Better: "higher"},
	// The host, not the program: the host-speed probe (hostspeed.go) as the
	// traced run began and ended, to read the timings above against.
	{Name: "host.probe_ms", Unit: "ms", Better: "lower"},
}

// exactLayer names the per-layer metrics that repeat bit-for-bit for a
// fixed seed on the deterministic (thor) workloads: counts taken from
// the program's own counters, never timings.
var exactLayer = map[string]bool{
	"scifi.restores_per_exp":      true,
	"scanchain.bits_per_exp":      true,
	"scanchain.exchanges_per_exp": true,
	"thor.cycles_per_exp":         true,
	"thor.cycles_saved_per_exp":   true,
	"campaign.cursor_bytes_at_n":  true,
	"sqldb.wal_bytes_per_exp":     true,
	"sqldb.wal_records_per_exp":   true,
	"sqldb.barriers_per_kexp":     true,
	"sqldb.wal_bytes_per_exp_2k":  true,
	"sqldb.wal_bytes_per_exp_20k": true,
}

// exactWorkloads are the workloads on which those counters repeat bit
// for bit: one deterministic board in one process. (Sharded runs split
// WAL traffic over stores by timing; the proc target is statistical.)
var exactWorkloads = map[string]bool{"sort-solo": true, "pid-long": true}

func isExact(workload, metric string) bool {
	return exactLayer[metric] && exactWorkloads[workload]
}
