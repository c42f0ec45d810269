// The parallel scan engine (DESIGN.md "Scan path & parallel decode").
//
// A PGC/PGN scan has three phases:
//
//  1. survivor selection — sequential: the footer's zone maps are
//     tested against the query range, and each surviving chunk's raw
//     extent is bounds-checked and routed through the fault-injection
//     ChunkHook. Running this phase in file order keeps hook hit
//     ordering (internal/faults cadences) identical at any parallelism.
//  2. decode — parallel: surviving chunks are CRC-checked, decoded and
//     row-filtered by a pool of ScanOptions.Parallelism workers, each
//     drawing scratch buffers from a process-wide sync.Pool. Every
//     worker writes only its own survivor slot, so no ordering is lost.
//  3. reassembly — sequential: per-chunk results are concatenated in
//     survivor order and the scan statistics are tallied, making the
//     output — rows, stats, and the chosen error in strict mode —
//     byte-identical to a sequential scan.
//
// Cancellation from ScanOptions.Ctx is observed between chunk decodes
// (sequential path) and before each worker picks up a chunk (parallel
// path); a cancelled scan returns the context's error.
package storage

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Scan-engine metrics, aggregated process-wide (storage.scan.*): decode
// concurrency, pooled-buffer effectiveness and per-chunk decode
// latency. They complement the per-call ScanStats return values.
var (
	obsScanChunksDecoded = obs.Default().Counter("storage.scan.chunks_decoded")
	obsScanPoolHits      = obs.Default().Counter("storage.scan.pool_hits")
	obsScanPoolMisses    = obs.Default().Counter("storage.scan.pool_misses")
	obsScanBytesPerSec   = obs.Default().Gauge("storage.scan.bytes_per_sec")
	obsScanDecode        = obs.Default().Histogram("storage.scan.decode")
)

// ScanOptions configures the parallel scan engine: how many chunks of a
// file decode concurrently, and the cancellation scope the decode
// workers observe. The zero value selects GOMAXPROCS workers under a
// background context, matching the -scan-parallelism default of the
// binaries.
type ScanOptions struct {
	// Parallelism is the number of concurrent chunk-decode workers per
	// file scan; 0 (or negative) selects runtime.GOMAXPROCS(0), 1 forces
	// fully sequential decode. Results are byte-identical at any value
	// (DESIGN.md "Scan path & parallel decode": ordering guarantee).
	Parallelism int
	// Ctx carries cancellation and deadlines into the scan: in-flight
	// decodes are abandoned and the scan returns Ctx.Err() once it is
	// done. nil means context.Background(). storage.Load defaults it to
	// the dataflow context's bound scope, so serve-layer deadlines abort
	// loads without extra plumbing.
	Ctx context.Context
}

// workers resolves Parallelism to an effective worker count.
func (o ScanOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// context resolves Ctx, defaulting to Background.
func (o ScanOptions) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// decodeScratch is the reusable per-chunk decode state: the five
// integer columns plus the intermediate row slice, sized to the largest
// chunk seen. Instances are pooled process-wide (scratchPool) and
// reused across chunks, files and loads; nothing handed out by a decode
// function may alias them once the chunk is finished (readFile copies
// all scratch-resident values into its outputs).
type decodeScratch struct {
	ints [5][]int64
	rows []row
}

// scratchPool recycles decodeScratch values across chunks and loads.
// It deliberately has no New func so that getScratch can observe pool
// misses (storage.scan.pool_misses) against hits.
var scratchPool sync.Pool

// getScratch obtains a scratch buffer from the pool, counting hit/miss.
func getScratch() *decodeScratch {
	if sc, ok := scratchPool.Get().(*decodeScratch); ok {
		obsScanPoolHits.Add(1)
		return sc
	}
	obsScanPoolMisses.Add(1)
	return &decodeScratch{}
}

// putScratch returns a scratch buffer to the pool.
func putScratch(sc *decodeScratch) { scratchPool.Put(sc) }

// int64s returns the k-th scratch integer column resized to n, growing
// its backing array only when a larger chunk arrives.
func (sc *decodeScratch) int64s(k, n int) []int64 {
	if cap(sc.ints[k]) < n {
		sc.ints[k] = make([]int64, n)
	}
	sc.ints[k] = sc.ints[k][:n]
	return sc.ints[k]
}

// rowBuf returns the scratch row slice resized to n.
func (sc *decodeScratch) rowBuf(n int) []row {
	if cap(sc.rows) < n {
		sc.rows = make([]row, n)
	}
	sc.rows = sc.rows[:n]
	return sc.rows
}

// chunkOut is one chunk's decoded contribution to a scan: the fully
// materialised rows that survived the range filter, plus the row
// counters the chunk contributes to ScanStats.
type chunkOut[R any] struct {
	rows []R
	// read counts rows surviving the range filter (ScanStats.RowsRead),
	// including rows later dropped for property corruption.
	read int
	// corrupt counts rows dropped by a Permissive read because their
	// property blob failed to decode (ScanStats.RowsCorrupt).
	corrupt int
}

// runScan executes decode(i) for every survivor index in [0, n): inline
// when one worker is requested (or there is at most one chunk), on a
// pool of decode workers otherwise. decode must confine itself to slot
// i of caller-owned result slices; runScan only reports cancellation.
func runScan(opts ScanOptions, n int, decode func(i int)) error {
	ctx := opts.context()
	workers := min(opts.workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			decode(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				decode(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// scanFileAs is the engine under readFile, generic over the output row
// type: survivor selection over metas, skipping each chunk whose span
// (least lo, greatest hi) skip rejects and routing the others through
// the fault-injection hook at site, parallel decode via runScan, and
// in-order reassembly of rows and statistics. decode is called once per
// surviving chunk with its raw bytes, its footer entry and a pooled
// scratch buffer; it must return either the chunk's materialised rows
// or the error that makes the chunk corrupt (skipped and counted under
// Permissive, fatal otherwise — chosen in chunk order, so strict-mode
// errors are deterministic at any parallelism).
func scanFileAs[M chunkIndex, R any](
	data []byte,
	opts ReadOptions,
	metas []M,
	site string,
	skip func(lo, hi int64) bool,
	decode func(chunk []byte, meta M, sc *decodeScratch) (chunkOut[R], error),
) ([]R, ScanStats, error) {
	var stats ScanStats
	start := time.Now()

	// Phase 1 — survivor selection, sequential and in file order so the
	// ChunkHook observes the same call sequence at any parallelism.
	type job struct {
		meta  M
		chunk []byte
	}
	var jobs []job
	for _, cm := range metas {
		if skip(cm.span()) {
			stats.ChunksSkipped++
			obsZoneMapSkips.Add(1)
			continue
		}
		h := cm.head()
		stats.ChunksRead++
		stats.BytesRead += int64(h.Length)
		obsChunksRead.Add(1)
		obsBytesRead.Add(int64(h.Length))
		chunk, err := chunkBytes(data, h, site, opts.ChunkHook)
		if err != nil {
			if opts.Permissive {
				stats.ChunksCorrupt++
				obsCorruptChunks.Add(1)
				continue
			}
			return nil, stats, err
		}
		jobs = append(jobs, job{meta: cm, chunk: chunk})
	}

	// Phase 2 — decode, parallel. Each worker owns slot i exclusively.
	outs := make([]chunkOut[R], len(jobs))
	errs := make([]error, len(jobs))
	if err := runScan(opts.Scan, len(jobs), func(i int) {
		sc := getScratch()
		defer putScratch(sc)
		t0 := time.Now()
		out, err := decode(jobs[i].chunk, jobs[i].meta, sc)
		d := time.Since(t0)
		obsDecode.Observe(d)
		obsScanDecode.Observe(d)
		if err != nil {
			errs[i] = err
			return
		}
		obsScanChunksDecoded.Add(1)
		outs[i] = out
	}); err != nil {
		return nil, stats, err
	}

	// Phase 3 — in-order reassembly: rows concatenate in chunk order,
	// corrupt chunks are skipped (Permissive) or abort with the
	// lowest-indexed error (strict).
	var rows []R
	for i := range jobs {
		if err := errs[i]; err != nil {
			if opts.Permissive {
				stats.ChunksCorrupt++
				obsCorruptChunks.Add(1)
				continue
			}
			return nil, stats, err
		}
		rows = append(rows, outs[i].rows...)
		stats.RowsRead += outs[i].read
		stats.RowsCorrupt += outs[i].corrupt
	}
	obsRowsRead.Add(int64(stats.RowsRead))
	obsCorruptRows.Add(int64(stats.RowsCorrupt))
	if el := time.Since(start); el > 0 && stats.BytesRead > 0 {
		obsScanBytesPerSec.Set(int64(float64(stats.BytesRead) / el.Seconds()))
	}
	return rows, stats, nil
}
