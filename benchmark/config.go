package main

import "time"

// Workload names, in the order the all-workloads run prints them.
const (
	wlExplore = "explore-cold"
	wlHot     = "serve-hot"
	wlChurn   = "serve-churn"
	wlIngest  = "ingest-mixed"
	wlShard   = "shard-scatter"
)

// workloadDef is one row of BENCHMARK.json's workload list.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wlExplore, "library load, zoom, coalesce per op, as in the paper: storage, core and dataflow do all the work, the serving layers none"},
	{wlHot, "32 specs, Zipf popularity, cache 4x the bodies: every request is a hit, so serve, qcache and resil are the whole cost and a faster zoom kernel must not show"},
	{wlChurn, "400 specs drawn uniformly, cache a twelfth of the bodies: rebind, zoom, encode and evict over a resident graph; a decode speed-up moves only setup_s"},
	{wlIngest, "open loop at fixed rates: fsynced appends patch views and invalidate ranges while a reader shares the handle lock and the cores; compaction spikes reach the p95"},
	{wlShard, "a 2-shard coordinator with no cache: half the requests are whole-graph zooms the shards compute in parallel legs, half serve-churn range chains they only clip; the slower leg sets the latency"},
}

// sizes are the frozen inputs of the workloads. They were calibrated
// once, at the commit that introduced the benchmark, and are never
// derived from a measurement taken during a run: a faster program must
// not be handed more work.
type sizes struct {
	// SNB-like graph behind every workload; NGrams-like graph beside it
	// in explore-cold.
	persons, friendships, firstNames, snapshots int
	words, pairsPerYear                         int
	// chunkRows is the zone-map granularity of the saved files, small
	// enough that a quarter-lifetime range has chunks to skip.
	chunkRows int

	// serve-hot: cache bytes at four times the 32 bodies (6.2 MB at seed 1).
	hotCacheBytes int64
	// serve-churn: cache bytes at a twelfth of the 400
	// bodies (60 MB at seed 1). A quarter of the bytes holds more than a
	// quarter of the entries, the small ones, and the hit share then sits
	// on the 0.25 line the workload is defined by; at a twelfth it is 0.09.
	churnCacheBytes int64

	// ingest-mixed: the smaller graph it serves (an append's cost grows
	// with the graph, and the window must hold enough appends to report
	// on), the two fixed rates and the batch size. An append holds the
	// graph's lock for 25 ms at the introducing commit, so five a second
	// keep it busy an eighth of the time and a third of the reads wait or
	// recompute; at ten a second the median read does, and flips between
	// a hit and a wait from run to run. The read rate is not a multiple of
	// the append rate, so an append meets the reader's interval at every
	// phase instead of racing one read a hundred times.
	ingestPersons  int
	appendsPerSec  float64
	queriesPerSec  float64
	batch          int
	compactionsPer int // inline compactions aimed at per window

	// probe repetition counts for the traced run.
	probeReps int
}

var fullSizes = sizes{
	persons: 300, friendships: 10, firstNames: 60, snapshots: 36,
	words: 250, pairsPerYear: 90,
	chunkRows:       128,
	hotCacheBytes:   24 << 20,
	churnCacheBytes: 5 << 20,
	ingestPersons:   150,
	appendsPerSec:   5,
	queriesPerSec:   247.4,
	batch:           16,
	compactionsPer:  4,
	probeReps:       15,
}

// smokeSizes shrink everything so the self-test can run every workload
// in a fraction of a second; numbers measured at this scale mean nothing.
var smokeSizes = sizes{
	persons: 60, friendships: 4, firstNames: 10, snapshots: 36,
	words: 50, pairsPerYear: 20,
	chunkRows:       64,
	hotCacheBytes:   8 << 20,
	churnCacheBytes: 256 << 10,
	ingestPersons:   40,
	appendsPerSec:   40,
	queriesPerSec:   80,
	batch:           4,
	compactionsPer:  3,
	probeReps:       2,
}

const (
	// serverParallelism is Config.Parallelism of every server and the
	// dataflow parallelism of explore-cold.
	serverParallelism = 2
	maxInflight       = 4
	queueDepth        = 8
	walSyncMode       = "each"
	// unsentGrace is how far behind its schedule the open-loop
	// generator may run before it drops a request as unsent.
	unsentGrace = 2 * time.Second
	// appendJitter moves each append of ingest-mixed off its grid by up
	// to this share of the append interval, either way.
	appendJitter = 0.25
	// setupRepeats is how many times a run sets up; setup_s is the
	// median.
	setupRepeats = 5
)

// metricDef describes one reported metric. Moves names, for a
// per-layer metric, the end-to-end metric it is predicted to move and
// on which workload — written down before anything was measured.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd is BENCHMARK.json's end_to_end list: every workload reports
// every one of them, none is ever zero, and a later change is rejected
// when one worsens by more than its bound. Apart from setup_s, which the
// list must hold, they do not depend on how fast the host runs. The
// times a user waits for are the timings below.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.12},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.18},
	{Name: "retained_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.12},
	{Name: "disk_bytes_per_state", Unit: "B", Better: "lower", Bound: 0.01},
}

// timings are what the users wait and pay for, as timed. Every run
// measures and prints them, untraced or traced, and -compare judges them
// by these bounds between two sets of runs. They are per-layer metrics
// in BENCHMARK.json, which carry no bound there: over ten seeds on the
// sandbox, whose speed other tenants set, their spreads reach 27 %, more
// than the widest bound the driver accepts (README.md).
var timings = []metricDef{
	{Name: "harness.query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "the user's median latency of one zoom operation: library op in explore-cold, handler call elsewhere, from the due time in ingest-mixed"},
	{Name: "harness.query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "the tail a reader sees, at the highest percentile up to the 95th with 10 samples beyond it: storage.compact_ms_p50 and serve.append_ms_p50 reach it on ingest-mixed"},
	{Name: "harness.query_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Moves: "completed correct queries per second of the window; the fixed rate in the open loop, where it falls only if the reader cannot keep up"},
	{Name: "harness.cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Moves: "the operator's CPU bill: process user+sys time over the window per completed operation, appends included"},
}

const (
	onExplore      = "harness.query_p50_ms, harness.cpu_ms_per_op on explore-cold"
	onExploreChurn = "harness.query_p50_ms, harness.cpu_ms_per_op on explore-cold and serve-churn; no move on serve-hot"
	onHot          = "harness.query_p50_ms on serve-hot"
	onChurn        = "harness.query_p50_ms on serve-churn"
	onIngest       = "harness.query_p50_ms, harness.query_p95_ms on ingest-mixed"
	onShard        = "harness.query_p50_ms, retained_heap_mb on shard-scatter"
)

// perLayer is BENCHMARK.json's per_layer list: the timings, then the
// layers. A traced run of any workload prints all the names, as the
// driver requires, and measures those it reaches: counter deltas and
// spans of its traced window, and the probes of the layers it exercises
// (probes.go), which call a layer directly on the run's own graph. The
// others read 0 and are listed as unreached.
var perLayer = append(append([]metricDef(nil), timings...), layers...)

var layers = []metricDef{
	{Name: "datagen.generate_s", Unit: "s", Better: "lower", Moves: "setup_s on every workload"},

	{Name: "storage.load_ms_p50.ve", Unit: "ms", Better: "lower", Moves: onExplore + "; setup_s on the serve workloads"},
	{Name: "storage.load_ms_p50.og", Unit: "ms", Better: "lower", Moves: onExplore},
	{Name: "storage.load_ms_p50.rg", Unit: "ms", Better: "lower", Moves: onExplore},
	{Name: "storage.load_ms_p50.ogc", Unit: "ms", Better: "lower", Moves: onExplore},
	{Name: "storage.decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: onExplore},
	{Name: "storage.rows_per_s", Unit: "1/s", Better: "higher", Moves: onExplore},
	{Name: "storage.allocs_per_row", Unit: "count", Better: "lower", Moves: "harness.cpu_ms_per_op on explore-cold"},
	{Name: "storage.bytes_read_per_op", Unit: "B", Better: "lower", Moves: onExplore},
	{Name: "storage.chunks_read_per_op", Unit: "count", Better: "lower", Moves: onExplore},
	{Name: "storage.chunks_skipped_share", Unit: "ratio", Better: "higher", Moves: onExplore},
	{Name: "storage.save_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "storage.compact_ms_p50", Unit: "ms", Better: "lower", Moves: "harness.query_p95_ms on ingest-mixed"},
	{Name: "storage.compactions", Unit: "count", Better: "higher", Moves: "harness.query_p95_ms on ingest-mixed"},
	{Name: "storage.reload_ms_p50", Unit: "ms", Better: "lower", Moves: "harness.query_p95_ms on ingest-mixed: the first query after an inline compaction"},

	{Name: "wal.append_us_p50", Unit: "us", Better: "lower", Moves: "harness.append_p50_ms, " + onIngest},
	{Name: "wal.append_us_p95", Unit: "us", Better: "lower", Moves: "harness.append_p95_ms on ingest-mixed"},
	{Name: "wal.syncs_per_append", Unit: "count", Better: "lower", Moves: "harness.append_p50_ms on ingest-mixed"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower", Moves: "disk_bytes_per_state on ingest-mixed"},
	{Name: "wal.append_rec_per_s.1", Unit: "1/s", Better: "higher", Moves: "harness.append_p50_ms on ingest-mixed"},
	{Name: "wal.append_rec_per_s.2", Unit: "1/s", Better: "higher", Moves: "harness.append_p50_ms on ingest-mixed"},
	{Name: "wal.replay_rec_per_s", Unit: "1/s", Better: "higher", Moves: "setup_s after a crash; storage.compact_ms_p50"},

	{Name: "dataflow.shuffled_records_per_op", Unit: "count", Better: "lower", Moves: onExploreChurn},
	{Name: "dataflow.jobs_per_op", Unit: "count", Better: "lower", Moves: onExploreChurn},
	{Name: "dataflow.tasks_per_op", Unit: "count", Better: "lower", Moves: onExploreChurn},
	{Name: "dataflow.max_workers_busy", Unit: "count", Better: "higher", Moves: onExploreChurn},

	{Name: "core.azoom_ms_p50.ve", Unit: "ms", Better: "lower", Moves: onExploreChurn},
	{Name: "core.azoom_ms_p50.og", Unit: "ms", Better: "lower", Moves: onExplore},
	{Name: "core.azoom_ms_p50.rg", Unit: "ms", Better: "lower", Moves: onExplore},
	{Name: "core.wzoom_ms_p50.ve", Unit: "ms", Better: "lower", Moves: onExploreChurn},
	{Name: "core.wzoom_ms_p50.og", Unit: "ms", Better: "lower", Moves: onExplore},
	{Name: "core.wzoom_ms_p50.rg", Unit: "ms", Better: "lower", Moves: onExplore},
	{Name: "core.wzoom_ms_p50.ogc", Unit: "ms", Better: "lower", Moves: onExplore},
	{Name: "core.azoom_allocs_per_op.ve", Unit: "count", Better: "lower", Moves: "harness.cpu_ms_per_op on explore-cold and serve-churn"},
	{Name: "core.azoom_allocs_per_op.og", Unit: "count", Better: "lower", Moves: "harness.cpu_ms_per_op on explore-cold"},
	{Name: "core.wzoom_allocs_per_op.ve", Unit: "count", Better: "lower", Moves: "harness.cpu_ms_per_op on explore-cold and serve-churn"},
	{Name: "core.wzoom_allocs_per_op.ogc", Unit: "count", Better: "lower", Moves: "harness.cpu_ms_per_op on explore-cold"},
	{Name: "core.azoom_kb_per_op.og", Unit: "KiB", Better: "lower", Moves: "harness.cpu_ms_per_op on explore-cold"},
	{Name: "core.coalesce_ms_p50", Unit: "ms", Better: "lower", Moves: onExploreChurn},
	{Name: "core.rebind_us_p50", Unit: "us", Better: "lower", Moves: onChurn},
	{Name: "core.convert_ms_p50.og", Unit: "ms", Better: "lower", Moves: "harness.append_p50_ms when the served representation is not VE"},
	{Name: "core.azoom_rg_over_ve", Unit: "ratio", Better: "lower", Moves: "shape claim VE < RG; base core.azoom_ms_p50.ve"},
	{Name: "core.azoom_og_over_ve", Unit: "ratio", Better: "lower", Moves: "shape claim OG <= VE; base core.azoom_ms_p50.ve"},
	{Name: "core.wzoom_ogc_over_ve", Unit: "ratio", Better: "lower", Moves: "shape claim OGC best; base core.wzoom_ms_p50.ve"},

	{Name: "qcache.hit_share", Unit: "ratio", Better: "higher", Moves: onHot + "; >= 0.95 there, <= 0.25 on serve-churn"},
	{Name: "qcache.do_hit_ns_p50", Unit: "ns", Better: "lower", Moves: onHot},
	{Name: "qcache.evictions_per_kop", Unit: "count", Better: "lower", Moves: onChurn},
	{Name: "qcache.patches_per_append", Unit: "count", Better: "higher", Moves: "harness.query_p50_ms on ingest-mixed"},
	{Name: "qcache.invalidated_per_append", Unit: "count", Better: "lower", Moves: "harness.query_p50_ms on ingest-mixed"},
	{Name: "qcache.resident_mb", Unit: "MiB", Better: "lower", Moves: "retained_heap_mb on the serve workloads"},

	{Name: "resil.acquire_ns_p50", Unit: "ns", Better: "lower", Moves: onHot},
	{Name: "resil.queued_share", Unit: "ratio", Better: "lower", Moves: "harness.query_p95_ms on the serve workloads: admissions that waited in the queue / admissions; expected 0 with 2 clients and 4 slots"},
	{Name: "resil.shed_share", Unit: "ratio", Better: "lower", Moves: "failed count on every serve workload; expected 0"},

	{Name: "serve.hit_us_p50", Unit: "us", Better: "lower", Moves: onHot},
	{Name: "serve.hit_allocs_per_op", Unit: "count", Better: "lower", Moves: "harness.cpu_ms_per_op on serve-hot"},
	{Name: "serve.hit_overhead_us", Unit: "us", Better: "lower", Moves: onHot + "; = hit - qcache.do_hit - resil.acquire"},
	{Name: "serve.miss_ms_p50", Unit: "ms", Better: "lower", Moves: onChurn},
	{Name: "serve.miss_overhead_ms", Unit: "ms", Better: "lower", Moves: onChurn + "; = miss - core.rebind - direct zoom"},
	{Name: "serve.body_kb_p50", Unit: "KiB", Better: "lower", Moves: onChurn + "; retained_heap_mb"},
	{Name: "serve.append_ms_p50", Unit: "ms", Better: "lower", Moves: "harness.append_p50_ms on ingest-mixed"},
	{Name: "serve.append_overhead_ms", Unit: "ms", Better: "lower", Moves: "harness.append_p50_ms on ingest-mixed; = append - wal.append - incr.apply"},

	{Name: "incr.apply_us_p50", Unit: "us", Better: "lower", Moves: "harness.append_p50_ms on ingest-mixed"},
	{Name: "incr.build_ms_p50", Unit: "ms", Better: "lower", Moves: "harness.append_p95_ms on ingest-mixed"},
	{Name: "incr.patched_share", Unit: "ratio", Better: "higher", Moves: "harness.query_p50_ms on ingest-mixed; 0 elsewhere"},
	{Name: "incr.fallback_share", Unit: "ratio", Better: "lower", Moves: "harness.append_p95_ms on ingest-mixed"},
	{Name: "incr.groups_patched_per_append", Unit: "count", Better: "lower", Moves: "harness.append_p50_ms on ingest-mixed"},
	{Name: "incr.windows_recomputed_per_append", Unit: "count", Better: "lower", Moves: "harness.append_p50_ms on ingest-mixed"},

	{Name: "shard.run_ms_p50.azoom", Unit: "ms", Better: "lower", Moves: onShard},
	{Name: "shard.run_ms_p50.wzoom", Unit: "ms", Better: "lower", Moves: onShard},
	{Name: "shard.run_ms_p50.range", Unit: "ms", Better: "lower", Moves: onShard},
	{Name: "shard.leg_ms_p95", Unit: "ms", Better: "lower", Moves: "harness.query_p95_ms on shard-scatter: the program's own histogram of leg latencies over the window"},
	{Name: "shard.legs_per_op", Unit: "count", Better: "lower", Moves: onShard},
	{Name: "shard.fallback_share", Unit: "ratio", Better: "lower", Moves: onShard},
	{Name: "shard.over_unsharded_ratio", Unit: "ratio", Better: "lower", Moves: onShard + "; sharded over unsharded p50 of the same three chains, base in a note line"},
	{Name: "shard.mirror_state_share", Unit: "ratio", Better: "lower", Moves: "retained_heap_mb on shard-scatter"},
	{Name: "graphx.partition_ms", Unit: "ms", Better: "lower", Moves: "setup_s on shard-scatter"},

	{Name: "span.op_ms_mean", Unit: "ms", Better: "lower", Moves: "the base of the span.*_share rows: mean duration of a traced operation"},
	{Name: "span.storage_load_share", Unit: "ratio", Better: "lower", Moves: onExplore},
	{Name: "span.core_zoom_share", Unit: "ratio", Better: "lower", Moves: onExplore},
	{Name: "span.core_coalesce_share", Unit: "ratio", Better: "lower", Moves: onExplore},
	{Name: "span.core_materialise_share", Unit: "ratio", Better: "lower", Moves: onExplore},
	{Name: "span.serve_handler_share", Unit: "ratio", Better: "lower", Moves: "harness.query_p50_ms on the serve workloads"},
	{Name: "span.harness_share", Unit: "ratio", Better: "lower", Moves: "none: the load generator's own share of an operation"},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced p50 against untraced p50 of the same run"},
	{Name: "harness.append_p50_ms", Unit: "ms", Better: "lower", Moves: "the feed's ack latency on ingest-mixed, from the due time, under the reader's load"},
	{Name: "harness.append_p95_ms", Unit: "ms", Better: "lower", Moves: "the feed's tail ack latency, at the highest percentile with 10 samples beyond it"},
	{Name: "harness.late_share", Unit: "ratio", Better: "lower", Moves: "none: open-loop requests sent more than 1 ms after they were due; a closed loop has no schedule"},
	{Name: "harness.samples", Unit: "count", Better: "higher", Moves: "none: query latencies behind the traced window's percentiles"},
}
