package storage

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/temporal"
)

// scanLevels are the parallelism settings every determinism test
// compares against the sequential baseline.
var scanLevels = []int{2, 3, 8}

func sampleOGVertices(n int) []core.OGVertex {
	vs := sampleVertices(n)
	out := make([]core.OGVertex, n)
	for i, v := range vs {
		out[i] = core.OGVertex{ID: v.ID, History: []core.HistoryItem{
			{Interval: v.Interval, Props: v.Props},
			{Interval: temporal.Interval{Start: v.Interval.End, End: v.Interval.End + 5}, Props: v.Props},
		}}
	}
	return out
}

// TestScanParallelFlatDeterminism: a flat scan must return exactly the
// same rows, in the same order, with the same stats, at any
// parallelism — with and without range pushdown.
func TestScanParallelFlatDeterminism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pgc")
	if err := WriteVertices(path, sampleVertices(500), WriteOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	for _, rng := range []temporal.Interval{temporal.Empty, {Start: 10, End: 30}} {
		seq, seqStats, err := ReadVerticesOpts(path, ReadOptions{Range: rng, Scan: ScanOptions{Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range scanLevels {
			got, gotStats, err := ReadVerticesOpts(path, ReadOptions{Range: rng, Scan: ScanOptions{Parallelism: par}})
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			if gotStats != seqStats {
				t.Errorf("parallelism %d rng %v: stats = %+v, want %+v", par, rng, gotStats, seqStats)
			}
			if !reflect.DeepEqual(got, seq) {
				t.Errorf("parallelism %d rng %v: rows differ from sequential scan", par, rng)
			}
		}
	}
}

// TestScanParallelNestedDeterminism is the nested-layout counterpart.
func TestScanParallelNestedDeterminism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pgn")
	if err := WriteNestedVertices(path, sampleOGVertices(400), WriteOptions{ChunkRows: 16}); err != nil {
		t.Fatal(err)
	}
	for _, rng := range []temporal.Interval{temporal.Empty, {Start: 5, End: 25}} {
		seq, seqStats, err := ReadNestedVerticesOpts(path, ReadOptions{Range: rng, Scan: ScanOptions{Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range scanLevels {
			got, gotStats, err := ReadNestedVerticesOpts(path, ReadOptions{Range: rng, Scan: ScanOptions{Parallelism: par}})
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			if gotStats != seqStats {
				t.Errorf("parallelism %d rng %v: stats = %+v, want %+v", par, rng, gotStats, seqStats)
			}
			if !reflect.DeepEqual(got, seq) {
				t.Errorf("parallelism %d rng %v: rows differ from sequential scan", par, rng)
			}
		}
	}
}

// TestScanParallelPermissiveCorruptParity: Permissive reads over a file
// with corrupt chunks must skip and count exactly the same chunks at
// any parallelism.
func TestScanParallelPermissiveCorruptParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pgc")
	if err := WriteVertices(path, sampleVertices(300), WriteOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	corruptChunk(t, path, 2)
	corruptChunk(t, path, 7)
	seq, seqStats, err := ReadVerticesOpts(path, ReadOptions{Permissive: true, Scan: ScanOptions{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.ChunksCorrupt != 2 {
		t.Fatalf("sequential ChunksCorrupt = %d, want 2", seqStats.ChunksCorrupt)
	}
	for _, par := range scanLevels {
		got, gotStats, err := ReadVerticesOpts(path, ReadOptions{Permissive: true, Scan: ScanOptions{Parallelism: par}})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if gotStats != seqStats {
			t.Errorf("parallelism %d: stats = %+v, want %+v", par, gotStats, seqStats)
		}
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("parallelism %d: surviving rows differ from sequential scan", par)
		}
	}

	// Strict mode must surface the same (lowest-offset) corruption error.
	_, _, seqErr := ReadVerticesOpts(path, ReadOptions{Scan: ScanOptions{Parallelism: 1}})
	if seqErr == nil {
		t.Fatal("strict sequential read survived corruption")
	}
	for _, par := range scanLevels {
		_, _, parErr := ReadVerticesOpts(path, ReadOptions{Scan: ScanOptions{Parallelism: par}})
		if parErr == nil || parErr.Error() != seqErr.Error() {
			t.Errorf("parallelism %d: strict error = %v, want %v", par, parErr, seqErr)
		}
	}
}

// TestScanSharedPoolConcurrentLoads drives concurrent parallel loads
// through the shared decode-buffer pool; run with -race it proves the
// pool hand-off and per-slot result writes are race-free.
func TestScanSharedPoolConcurrentLoads(t *testing.T) {
	ctx := testCtx()
	defer ctx.Close()
	dir := t.TempDir()
	g := core.NewVE(ctx, sampleVertices(400), sampleEdges(300))
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	baseline, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Scan: ScanOptions{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			lctx := testCtx()
			defer lctx.Close()
			rep := core.RepVE
			if slot%2 == 1 {
				rep = core.RepOG
			}
			out, _, err := Load(lctx, dir, LoadOptions{Rep: rep, Scan: ScanOptions{Parallelism: 4}})
			if err != nil {
				errs[slot] = err
				return
			}
			if rep == core.RepVE && (out.NumVertices() != baseline.NumVertices() || out.NumEdges() != baseline.NumEdges()) {
				errs[slot] = errors.New("concurrent load returned a different graph")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("load %d: %v", i, err)
		}
	}
}

// TestScanCancellation: a cancelled scan context aborts the read with
// the context's error, at any parallelism.
func TestScanCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pgc")
	if err := WriteVertices(path, sampleVertices(300), WriteOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		_, _, err := ReadVerticesOpts(path, ReadOptions{Scan: ScanOptions{Parallelism: par, Ctx: cctx}})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
	}
	// And through Load, which defaults Scan.Ctx from the dataflow context.
	dir := t.TempDir()
	ctx := testCtx()
	defer ctx.Close()
	g := core.NewVE(ctx, sampleVertices(100), nil)
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 16}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Scan: ScanOptions{Parallelism: 4, Ctx: cctx}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Load err = %v, want context.Canceled", err)
	}
}

// TestCrashRecoveryParallelScan: crash-recovery semantics are identical
// under parallel decode — a torn MANIFEST still fails strict loads and
// degrades Permissive ones, at every parallelism.
func TestCrashRecoveryParallelScan(t *testing.T) {
	ctx := testCtx()
	defer ctx.Close()
	dir := t.TempDir()
	g := core.NewVE(ctx, sampleVertices(200), sampleEdges(100))
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Scan: ScanOptions{Parallelism: par}}); err == nil {
			t.Errorf("parallelism %d: strict load survived a torn manifest", par)
		}
		out, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Permissive: true, Scan: ScanOptions{Parallelism: par}})
		if err != nil {
			t.Errorf("parallelism %d: permissive load failed: %v", par, err)
			continue
		}
		if out.NumVertices() != g.NumVertices() || out.NumEdges() != g.NumEdges() {
			t.Errorf("parallelism %d: permissive load returned a different graph", par)
		}
	}
}
