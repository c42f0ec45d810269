package faults

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/temporal"
)

// The chaos suite (make chaos) runs these tests under -race -count=2
// with the fixed seeds below. The invariants under injected faults:
//
//  1. a job either completes with the correct result or fails with a
//     clean typed error (*dataflow.JobError unwrapping to the injected
//     *Error or a context error) — panics never escape the guard;
//  2. no run deadlocks (the tests finishing is the proof);
//  3. the dataflow.workers_busy gauge returns to zero after every run.
var chaosSeeds = []int64{11, 23}

// checkBusy asserts the worker-occupancy gauge returned to its
// pre-run value.
func checkBusy(t *testing.T, before int64) {
	t.Helper()
	if got := obs.Default().Gauge("dataflow.workers_busy").Value(); got != before {
		t.Errorf("workers_busy = %d after run, want %d", got, before)
	}
}

// requireTypedOrNil asserts err is nil or a *dataflow.JobError that
// unwraps to an injected fault or a context error, and returns the
// JobError (nil on success).
func requireTypedOrNil(t *testing.T, err error) *dataflow.JobError {
	t.Helper()
	if err == nil {
		return nil
	}
	var je *dataflow.JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %T (%v), want *dataflow.JobError", err, err)
	}
	var fe *Error
	if !errors.As(err, &fe) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("JobError does not unwrap to an injected fault or context error: %v", err)
	}
	return je
}

// TestChaosDataflowPanics injects hard panics across all engine stages
// of a shuffle-heavy pipeline and checks the failure contract.
func TestChaosDataflowPanics(t *testing.T) {
	data := make([]int, 512)
	for i := range data {
		data[i] = i
	}
	// Fault-free baseline: doubled values are even, so v % 16 takes the
	// 8 even residues.
	wantGroups := 8

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := New(seed, Rule{Site: "dataflow.", Kind: Panic, Prob: 0.02})
			ctx := dataflow.NewContext(
				dataflow.WithParallelism(4),
				dataflow.WithFaultHook(inj.Hook()),
			)
			busyBefore := obs.Default().Gauge("dataflow.workers_busy").Value()
			var groups int
			err := ctx.Run(func() error {
				d := dataflow.Parallelize(ctx, data, 16)
				doubled := dataflow.Map(d, func(v int) int { return v * 2 })
				keyed := dataflow.GroupByKey(doubled, func(v int) int { return v % 16 }, cmp.Compare[int])
				groups = keyed.Count()
				return nil
			})
			checkBusy(t, busyBefore)
			je := requireTypedOrNil(t, err)
			if je == nil {
				if groups != wantGroups {
					t.Errorf("fault-free completion produced %d groups, want %d", groups, wantGroups)
				}
				return
			}
			if len(je.FailedPartitions()) == 0 && je.Cancel == nil {
				t.Errorf("JobError names no failed partitions and no cancellation: %v", je)
			}
			for _, te := range je.Tasks {
				var fe *Error
				if !errors.As(te.Err, &fe) {
					t.Errorf("partition %d failed with %v, want an injected *faults.Error", te.Partition, te.Err)
				}
			}
		})
	}
}

// TestChaosTransientRetryCompletes injects transient faults at a
// cadence the retry policy is guaranteed to absorb (serial execution,
// Every ≥ 2, so retry attempts — the hit immediately after a fired one
// — can never fire again) and checks the job completes correctly with
// the retries visible in the metrics.
func TestChaosTransientRetryCompletes(t *testing.T) {
	data := make([]int, 256)
	sum := 0
	for i := range data {
		data[i] = i
		sum += 2 * i
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := New(seed, Rule{Site: "dataflow.", Kind: Transient, Every: 4})
			ctx := dataflow.NewContext(
				dataflow.WithParallelism(1),
				dataflow.WithFaultHook(inj.Hook()),
				dataflow.WithRetry(dataflow.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}),
			)
			busyBefore := obs.Default().Gauge("dataflow.workers_busy").Value()
			got := 0
			err := ctx.Run(func() error {
				d := dataflow.Parallelize(ctx, data, 32)
				doubled := dataflow.Map(d, func(v int) int { return 2 * v })
				for _, v := range doubled.Collect() {
					got += v
				}
				return nil
			})
			checkBusy(t, busyBefore)
			if err != nil {
				t.Fatalf("retry policy should absorb Every=4 transients: %v", err)
			}
			if got != sum {
				t.Errorf("sum = %d, want %d", got, sum)
			}
			if inj.InjectedTotal() == 0 {
				t.Fatal("injector never fired; the chaos run tested nothing")
			}
			if m := ctx.Metrics(); m.TaskRetries != inj.InjectedTotal() {
				t.Errorf("TaskRetries = %d, want %d (one per injected transient)", m.TaskRetries, inj.InjectedTotal())
			} else if m.TaskFailures != 0 {
				t.Errorf("TaskFailures = %d, want 0", m.TaskFailures)
			}
		})
	}
}

// TestChaosDelaysHitDeadline slows every task down under a short
// deadline: the job must fail with DeadlineExceeded instead of running
// to completion, and must not deadlock or strand workers.
func TestChaosDelaysHitDeadline(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := New(seed, Rule{Site: "dataflow.", Kind: Delay, Every: 1, Delay: 2 * time.Millisecond})
			ctx := dataflow.NewContext(
				dataflow.WithParallelism(2),
				dataflow.WithFaultHook(inj.Hook()),
				dataflow.WithTimeout(10*time.Millisecond),
			)
			defer ctx.Close()
			busyBefore := obs.Default().Gauge("dataflow.workers_busy").Value()
			err := ctx.Run(func() error {
				d := dataflow.Parallelize(ctx, make([]int, 128), 128)
				dataflow.Map(d, func(v int) int { return v })
				return nil
			})
			checkBusy(t, busyBefore)
			if err == nil {
				t.Fatal("128 delayed tasks finished inside a 10ms deadline")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want DeadlineExceeded", err)
			}
			if m := ctx.Metrics(); m.TasksCancelled == 0 {
				t.Error("TasksCancelled = 0 after a deadline abort")
			}
		})
	}
}

// TestChaosZoomPipeline drives the paper's zoom operators under panic
// injection: every outcome must be a correct graph or a typed error
// from the entry point — never a panic, never a partial graph.
func TestChaosZoomPipeline(t *testing.T) {
	wspec := core.WZoomSpec{
		Window:   temporal.MustEveryN(2),
		VQuant:   temporal.All(),
		EQuant:   temporal.Exists(),
		VResolve: props.LastWins,
		EResolve: props.LastWins,
	}
	aspec := core.GroupByProperty("grp", "cluster", props.Count("n"))

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := New(seed, Rule{Site: "dataflow.", Kind: Panic, Prob: 0.01})
			ctx := dataflow.NewContext(
				dataflow.WithParallelism(4),
				dataflow.WithDefaultPartitions(4),
				dataflow.WithFaultHook(inj.Hook()),
			)
			g := core.NewVE(ctx, chaosVertices(120), chaosEdges(80))
			busyBefore := obs.Default().Gauge("dataflow.workers_busy").Value()

			for name, zoom := range map[string]func() (core.TGraph, error){
				"wzoom.VE": func() (core.TGraph, error) { return g.WZoom(wspec) },
				"azoom.VE": func() (core.TGraph, error) { return g.AZoom(aspec) },
				"wzoom.OG": func() (core.TGraph, error) { return core.ToOG(g).WZoom(wspec) },
				"convert":  func() (core.TGraph, error) { return core.Convert(g, core.RepRG) },
			} {
				out, err := func() (out core.TGraph, err error) {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: panic escaped the zoom guard: %v", name, r)
						}
					}()
					return zoom()
				}()
				if err != nil {
					requireTypedOrNil(t, err)
					if out != nil {
						t.Errorf("%s: returned a graph alongside its error", name)
					}
				} else if out == nil {
					t.Errorf("%s: nil graph with nil error", name)
				}
			}
			checkBusy(t, busyBefore)
		})
	}
}

// TestChaosStorageCorruption corrupts chunks during reads: strict mode
// must reject the file with an integrity error, Permissive mode must
// return the surviving rows and account for every corrupted chunk.
func TestChaosStorageCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgc")
	const rows, chunkRows = 200, 32
	if err := storage.WriteVertices(path, chaosVertices(rows), storage.WriteOptions{ChunkRows: chunkRows}); err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Strict: the first injected corruption aborts the read.
			strict := New(seed, Rule{Site: "storage.", Kind: Corrupt, Every: 2})
			if _, _, err := storage.ReadVerticesOpts(path, storage.ReadOptions{ChunkHook: strict.ChunkHook()}); err == nil {
				t.Error("strict read survived injected corruption")
			}

			// Permissive: corrupt chunks are skipped and counted.
			perm := New(seed, Rule{Site: "storage.", Kind: Corrupt, Every: 2})
			out, stats, err := storage.ReadVerticesOpts(path, storage.ReadOptions{
				Permissive: true,
				ChunkHook:  perm.ChunkHook(),
			})
			if err != nil {
				t.Fatalf("permissive read failed: %v", err)
			}
			injected := int(perm.InjectedTotal())
			if injected == 0 {
				t.Fatal("injector never corrupted a chunk")
			}
			if stats.ChunksCorrupt != injected {
				t.Errorf("ChunksCorrupt = %d, want %d (one per injected corruption)", stats.ChunksCorrupt, injected)
			}
			if len(out) >= rows {
				t.Errorf("permissive read returned %d rows, want fewer than %d", len(out), rows)
			}
			if min := rows - injected*chunkRows; len(out) < min {
				t.Errorf("permissive read returned %d rows, want at least %d", len(out), min)
			}
		})
	}
}

func chaosVertices(n int) []core.VertexTuple {
	out := make([]core.VertexTuple, n)
	for i := range out {
		s := temporal.Time(i % 20)
		out[i] = core.VertexTuple{
			ID:       core.VertexID(i),
			Interval: temporal.Interval{Start: s, End: s + 4},
			Props:    props.New("type", "node", "grp", i%5),
		}
	}
	return out
}

func chaosEdges(n int) []core.EdgeTuple {
	out := make([]core.EdgeTuple, n)
	for i := range out {
		s := temporal.Time(i % 20)
		out[i] = core.EdgeTuple{
			ID:       core.EdgeID(i),
			Src:      core.VertexID(i % 120),
			Dst:      core.VertexID((i + 1) % 120),
			Interval: temporal.Interval{Start: s, End: s + 3},
			Props:    props.New("type", "link", "w", i),
		}
	}
	return out
}

// TestChaosParallelScanCorruption proves the injection cadence is
// independent of scan parallelism: because chunk hooks fire during the
// scan engine's sequential survivor-selection phase, the same seed
// corrupts the same chunks whether decoding runs on one worker or
// many, and Permissive reads return identical survivors either way.
func TestChaosParallelScanCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgc")
	const rows, chunkRows = 200, 32
	if err := storage.WriteVertices(path, chaosVertices(rows), storage.WriteOptions{ChunkRows: chunkRows}); err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			seqInj := New(seed, Rule{Site: "storage.", Kind: Corrupt, Every: 2})
			seq, seqStats, err := storage.ReadVerticesOpts(path, storage.ReadOptions{
				Permissive: true,
				ChunkHook:  seqInj.ChunkHook(),
				Scan:       storage.ScanOptions{Parallelism: 1},
			})
			if err != nil {
				t.Fatalf("sequential permissive read failed: %v", err)
			}
			if seqInj.InjectedTotal() == 0 {
				t.Fatal("injector never corrupted a chunk")
			}
			for _, par := range []int{2, 4, 8} {
				parInj := New(seed, Rule{Site: "storage.", Kind: Corrupt, Every: 2})
				got, gotStats, err := storage.ReadVerticesOpts(path, storage.ReadOptions{
					Permissive: true,
					ChunkHook:  parInj.ChunkHook(),
					Scan:       storage.ScanOptions{Parallelism: par},
				})
				if err != nil {
					t.Fatalf("parallelism %d: permissive read failed: %v", par, err)
				}
				if parInj.InjectedTotal() != seqInj.InjectedTotal() {
					t.Errorf("parallelism %d: injected %d corruptions, sequential injected %d",
						par, parInj.InjectedTotal(), seqInj.InjectedTotal())
				}
				if gotStats != seqStats {
					t.Errorf("parallelism %d: stats = %+v, want %+v", par, gotStats, seqStats)
				}
				if len(got) != len(seq) {
					t.Errorf("parallelism %d: %d surviving rows, sequential kept %d", par, len(got), len(seq))
				}
			}
		})
	}
}
