# Developer entry points. `make check` is the full gate CI should run:
# it builds every package, vets, runs the test suite (including the
# obs registry/tracer concurrency tests) under the race detector, and
# repeats the fault-injection chaos and crash-consistency suites.

GO ?= go

.PHONY: check build vet lint test test-race bench fmt bench-json pairs chaos crash ingest-chaos smoke-serve smoke-scan smoke-overload smoke-incr smoke-shard

check: build vet lint test-race chaos crash ingest-chaos smoke-serve smoke-scan smoke-overload smoke-incr smoke-shard

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repository-specific static checks: forbids raw map[string]props.Value
# construction outside internal/props, undocumented exports in the
# doc-enforced packages, and sort.Slice/sort.SliceStable in the
# result-path packages (see internal/lint).
lint:
	$(GO) run ./cmd/tgraph-lint .

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Fault-injection chaos suite: the TestChaos* tests drive the engine,
# zoom operators and storage under seeded injected failures (fixed
# seeds 11 and 23 inside the tests), twice each, under the race
# detector.
chaos:
	$(GO) test -race -count=2 -run Chaos ./...

# Crash-consistency suite: the TestCrash* tests crash SaveGraph at
# every atomic-write site (seeded faults.Crash rules) and truncate
# every committed file at every chunk boundary, asserting each
# directory loads as old data, a typed error, or a permissive partial —
# never a panic — under the race detector.
crash:
	$(GO) test -race -count=1 -run Crash ./...

# Ingestion chaos suite: the WAL crash matrix (injected crashes at
# every storage.wal.* durability point, torn batches, double crashes),
# torn-tail truncation at every byte boundary, the compaction crash
# matrix, concurrent append+scan, and the live serve-path crash /
# degraded-refusal tests — all under the race detector.
ingest-chaos:
	$(GO) test -race -count=1 -run 'TestCrashWAL|TestTornTail|TestMidLogCorruption|TestBatchedSyncDurability|TestConcurrentAppendScan' ./internal/storage/wal
	$(GO) test -race -count=1 -run 'TestCrashCompactMatrix|TestLoadWALCorruptionModes|TestVerifyAndRepairWALAndLitter' ./internal/storage
	$(GO) test -race -count=1 -run 'TestAppend' ./internal/serve

# Query-service smoke: N concurrent identical requests execute one
# zoom (singleflight, asserted via obs counters), hits are
# byte-identical to the cold run, and distinct queries cache
# independently.
smoke-serve:
	$(GO) test -race -count=1 -run 'TestConcurrentIdenticalRequestsDedup|TestWZoomSmokeAndByteIdenticalHit|TestDistinctQueriesCached' ./internal/serve

# Overload smoke: admission control sheds 4x saturation with bounded
# queueing and zero 5xx (TestChaosServeOverload), the reload breaker
# degrades to byte-identical stale serving and recovers
# (TestChaosReloadBreaker), then the overload bench runs at a small
# scale — it panics on any 5xx or on a missing degraded response.
smoke-overload:
	$(GO) test -race -count=1 -run 'TestChaosServeOverload|TestChaosReloadBreaker|TestAdmissionShed429' ./internal/serve
	$(GO) run ./cmd/tgraph-bench -exp overload -scale 0.25

# Parallel-scan smoke: the determinism suite proves byte-identical
# rows/stats at parallelism 1 vs N (with and without corruption), then
# the scan bench runs at a small scale — it panics if the parallel
# pass reads a different row count than the sequential one.
smoke-scan:
	$(GO) test -race -count=1 -run 'TestScanParallel' ./internal/storage
	$(GO) run ./cmd/tgraph-bench -exp scan -scale 0.05

# Incremental-maintenance smoke: the quick harness proves incremental
# aZoom/wZoom views byte-identical to from-scratch recomputation across
# representations, the serve patch path round-trips (append → patched
# cache entry → body identical to a cold recompute), then the incr
# bench runs at a small scale — it panics if a patched result diverges
# from the batch recompute.
smoke-incr:
	$(GO) test -race -count=1 -run 'TestQuickIncr' ./internal/incr
	$(GO) test -race -count=1 -run 'TestAppendPatchesViews|TestChangeWindowStaysOnInvalidatePath' ./internal/serve
	$(GO) run ./cmd/tgraph-bench -exp incr -scale 0.25

# Sharded-serving smoke: scatter-gather responses byte-identical to
# unsharded across shard counts, strategies and representations; a
# pre-split directory auto-detected and served with durable per-shard
# WAL appends; and a fault-injected shard worker degrading to a partial
# merge (or failing fast) under the race detector.
smoke-shard:
	$(GO) test -race -count=1 -run 'TestShardedByteIdentity|TestShardedDiskAppendDurability|TestShardedPartialDegraded' ./internal/serve
	$(GO) test -race -count=1 -run 'TestChaosPartialFailure|TestAZoomByteIdentity' ./internal/shard

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Regenerate the checked-in machine-readable benchmark results.
bench-json:
	$(GO) run ./cmd/tgraph-bench -exp all -json BENCH_all.json

# Alternating base/change pairs of one benchmark workload, judged by
# the benchmark's -compare (see tools/pairs.sh):
#   make pairs W=serve-churn BASE=HEAD~1 N=10
BASE ?= HEAD~1
N ?= 10
pairs:
	bash tools/pairs.sh $(W) $(BASE) $(N)

fmt:
	gofmt -l -w .
