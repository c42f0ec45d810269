# Developer entry points. `make check` is the full gate CI should run:
# it builds every package, fails on unformatted files, vets, lints,
# runs the whole test suite
# (crash-consistency, WAL crash matrix, serving, sharding and
# incremental-view suites included) under the race detector, runs the
# allocation guards without it, repeats the fault-injection chaos
# suite, and ends with `idle`, failing if any test binary or benchmark
# process outlived its run.

GO ?= go

.PHONY: check build fmt-check vet lint test test-race allocs bench fmt fuzz pairs chaos idle

check: build fmt-check vet lint test-race allocs chaos idle

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

# The allocation guards (every test whose name contains Alloc) without
# the race detector: under -race the pool-dependent ones, such as
# TestEncodeGraphAllocations, TestHitAllocations and
# TestAZoomGroupAllocations, skip themselves.
allocs:
	$(GO) test -count=1 -run 'Alloc' ./...

# Fault-injection chaos suite: the TestChaos* tests drive the engine,
# zoom operators and storage under seeded injected failures (fixed
# seeds 11 and 23 inside the tests), twice each, under the race
# detector.
chaos:
	$(GO) test -race -count=2 -run Chaos ./...

# The paper-figure scale axis (Table 1, Figs. 10-17, the load and
# coalesce ablations) as tables; the five workloads with bounds and
# per-layer metrics are `bash benchmark/run.sh` (see benchmark/README.md).
bench:
	$(GO) run ./cmd/tgraph-bench -exp all

# Alternating base/change pairs of one benchmark workload, judged by
# the benchmark's -compare, in chunks of at most four pairs, which one
# foreground shell call can finish (see tools/pairs.sh). FROM=1 starts
# afresh; TO defaults to FROM+3; the chunk whose TO reaches N prints
# -compare:
#   make pairs W=serve-hot BASE=HEAD~1 FROM=1
#   make pairs W=serve-hot BASE=HEAD~1 FROM=5
#   make pairs W=serve-hot BASE=HEAD~1 FROM=9
BASE ?= HEAD~1
N ?= 10
FROM ?= 1
TO ?= $(shell t=$$(( $(FROM) + 3 )); [ $$t -gt $(N) ] && t=$(N); echo $$t)
pairs:
	bash tools/pairs.sh $(W) $(BASE) $(FROM) $(TO) $(N)

fmt:
	gofmt -l -w .

# Lists every file gofmt would change and fails if there is one (`make
# fmt` rewrites them).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Fuzzes every reader of untrusted bytes — chunk files of both
# layouts, CSV, the MANIFEST, WAL record payloads and whole WAL
# segments, request specs, cached bodies clipped to a range, the state
# encoder and append batches — for FUZZSECS seconds each with two
# workers, every run under a hard timeout. Not part of `check`: `go
# test` replays only the seed corpora in testdata/fuzz. A crasher is
# written there as a new seed and fails the target. Minimising each new
# input is capped at 2 s: under the default 60 s, FuzzReadPGC spent 36
# of 45 s minimising and ran 7 120 inputs; capped, it runs about 2 000
# a second.
FUZZSECS ?= 30
FUZZ_TARGETS = storage:FuzzReadPGC storage:FuzzReadPGN storage:FuzzReadCSV \
	storage:FuzzParseManifest storage/wal:FuzzDecodePayload \
	storage/wal:FuzzOpenSegment \
	serve:FuzzSpecRequest serve:FuzzClipBody serve:FuzzEncodeStates \
	serve:FuzzAppendBatch
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		timeout -k 5 $$(( $(FUZZSECS) + 120 )) $(GO) test -run '^$$' -fuzz "^$${t#*:}$$" \
			-fuzztime $(FUZZSECS)s -fuzzminimizetime 2s -parallel 2 ./internal/$${t%%:*} || exit 1; \
	done

# Hand-over check: prints every live tgraph-*, pairs.sh or run.sh
# process, test binary (*.test) and `go test`/`go run` command, and
# fails if it finds one. The bracketed first characters keep the
# pattern from matching the recipe's own command line. Run it as a
# command of its own: a shell whose own command line names run.sh or
# `go test` matches the pattern too.
idle:
	@if ps -eo pid,args | grep -E '[t]graph-|[p]airs\.sh|[r]un\.sh|[.]test( |$$)|[g]o (test|run)( |$$)'; then exit 1; fi
