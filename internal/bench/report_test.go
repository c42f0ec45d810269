package bench

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/temporal"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeExperiment is a deterministic fixture: a tiny dataflow job with a
// two-level span tree, producing stable counters under parallelism 1.
// It also drives each fault-tolerance counter exactly once so the
// golden file locks the retry/failure/cancel/corruption metric names:
// dataflow.task_retries, dataflow.task_failures,
// dataflow.tasks_cancelled and storage.corrupt_chunks_skipped — plus
// the crash-consistency counters storage.fsyncs,
// storage.manifest_mismatches and storage.recovered_saves.
func fakeExperiment() Experiment {
	return Experiment{
		ID:          "fake",
		Title:       "fake experiment",
		Description: "deterministic schema fixture",
		Run: func(cfg Config) []Table {
			ctx := cfg.context()
			sp := obs.StartSpan("fake.run")
			stage := obs.StartSpan("fake.stage")
			data := make([]int, 10)
			for i := range data {
				data[i] = i
			}
			d := dataflow.Parallelize(ctx, data, 2)
			n := dataflow.GroupByKey(d, func(v int) int { return v % 3 }, cmp.Compare[int]).Count()
			stage.End()
			sp.End()
			retries, failures, cancelled := fakeFaultCounters()
			skipped := fakeCorruptChunk()
			mismatches, recovered := fakeCrashRecovery()
			return []Table{
				{
					Title:  "fake table",
					Note:   "fixture",
					Header: []string{"groups"},
					Rows:   [][]string{{fmt.Sprint(n)}},
				},
				{
					Title:  "fake faults",
					Note:   "fault-tolerance counter fixture",
					Header: []string{"retries", "failures", "cancelled", "chunks_skipped"},
					Rows: [][]string{{
						fmt.Sprint(retries), fmt.Sprint(failures),
						fmt.Sprint(cancelled), fmt.Sprint(skipped),
					}},
				},
				{
					Title:  "fake crash recovery",
					Note:   "crash-consistency counter fixture",
					Header: []string{"manifest_mismatches", "recovered_saves"},
					Rows:   [][]string{{fmt.Sprint(mismatches), fmt.Sprint(recovered)}},
				},
			}
		},
	}
}

// fakeFaultCounters drives the dataflow fault-path counters with exact
// values: one retried transient, one hard failure, two cancelled tasks.
func fakeFaultCounters() (retries, failures, cancelled int64) {
	rctx := dataflow.NewContext(
		dataflow.WithParallelism(1),
		dataflow.WithRetry(dataflow.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond}),
	)
	attempt := 0
	_ = rctx.Run(func() error {
		d := dataflow.Parallelize(rctx, []int{0}, 1)
		dataflow.Map(d, func(v int) int {
			if attempt++; attempt == 1 {
				panic(dataflow.Transient(errors.New("fixture transient")))
			}
			return v
		})
		return nil
	})

	fctx := dataflow.NewContext(dataflow.WithParallelism(1))
	_ = fctx.Run(func() error {
		d := dataflow.Parallelize(fctx, []int{0}, 1)
		dataflow.Map(d, func(v int) int { panic("fixture failure") })
		return nil
	})

	// Run short-circuits before launching tasks when the context is
	// already cancelled; invoke the job directly so the per-task
	// cancellation counter fires for each skipped partition.
	std, cancel := context.WithCancel(context.Background())
	cancel()
	cctx := dataflow.NewContext(dataflow.WithParallelism(1), dataflow.WithContext(std))
	func() {
		defer func() {
			if r := recover(); dataflow.AsJobError(r) == nil {
				panic(r)
			}
		}()
		d := dataflow.Parallelize(cctx, []int{0, 1}, 2)
		dataflow.Map(d, func(v int) int { return v })
	}()

	return rctx.Metrics().TaskRetries, fctx.Metrics().TaskFailures, cctx.Metrics().TasksCancelled
}

// fakeCorruptChunk writes a two-chunk PGC file, corrupts the second
// chunk on read, and performs a Permissive scan: exactly one chunk is
// skipped and counted.
func fakeCorruptChunk() int {
	dir, err := os.MkdirTemp("", "bench-fixture-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "v.pgc")
	vs := make([]core.VertexTuple, 4)
	for i := range vs {
		vs[i] = core.VertexTuple{
			ID:       core.VertexID(i),
			Interval: temporal.MustInterval(0, 2),
			Props:    props.New("type", "node"),
		}
	}
	if err := storage.WriteVertices(path, vs, storage.WriteOptions{ChunkRows: 2}); err != nil {
		panic(err)
	}
	chunks := 0
	_, stats, err := storage.ReadVerticesOpts(path, storage.ReadOptions{
		Permissive: true,
		ChunkHook: func(site string, chunk []byte) []byte {
			if chunks++; chunks == 2 {
				bad := append([]byte(nil), chunk...)
				bad[len(bad)/2] ^= 0xFF
				return bad
			}
			return chunk
		},
	})
	if err != nil {
		panic(err)
	}
	return stats.ChunksCorrupt
}

// fakeCrashRecovery saves a tiny graph directory, tears its MANIFEST
// (simulating a crash mid-commit), and loads it twice: the strict load
// fails with a typed error, the Permissive one recovers the data. This
// drives storage.fsyncs, storage.manifest_mismatches and
// storage.recovered_saves with exact values.
func fakeCrashRecovery() (mismatches, recovered int64) {
	dir, err := os.MkdirTemp("", "bench-crash-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	ctx := dataflow.NewContext(dataflow.WithParallelism(1))
	vs := make([]core.VertexTuple, 4)
	for i := range vs {
		vs[i] = core.VertexTuple{
			ID:       core.VertexID(i),
			Interval: temporal.MustInterval(0, 2),
			Props:    props.New("type", "node"),
		}
	}
	g := core.NewVE(ctx, vs, nil)
	if err := storage.SaveGraph(dir, g, storage.SaveOptions{SkipNested: true}); err != nil {
		panic(err)
	}
	mpath := filepath.Join(dir, storage.ManifestFile)
	data, err := os.ReadFile(mpath)
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(mpath, data[:len(data)/2], 0o644); err != nil {
		panic(err)
	}
	mism0 := obs.Default().Counter("storage.manifest_mismatches").Value()
	rec0 := obs.Default().Counter("storage.recovered_saves").Value()
	if _, _, err := storage.Load(ctx, dir, storage.LoadOptions{Rep: core.RepVE}); !errors.Is(err, storage.ErrIncompleteSave) {
		panic(fmt.Sprintf("fixture: strict load of torn manifest: %v", err))
	}
	if _, _, err := storage.Load(ctx, dir, storage.LoadOptions{Rep: core.RepVE, Permissive: true}); err != nil {
		panic(fmt.Sprintf("fixture: permissive recovery: %v", err))
	}
	return obs.Default().Counter("storage.manifest_mismatches").Value() - mism0,
		obs.Default().Counter("storage.recovered_saves").Value() - rec0
}

// normalizeResult zeroes every wall-clock-derived field so the JSON
// encoding is reproducible; counts and structure remain.
func normalizeResult(res *RunResult) {
	for name, h := range res.Metrics.Histograms {
		h.SumMS, h.MeanMS, h.MinMS, h.MaxMS = 0, 0, 0, 0
		h.P50MS, h.P95MS, h.P99MS = 0, 0, 0
		res.Metrics.Histograms[name] = h
	}
	// The key-dictionary size is process-global: it depends on which
	// tests ran (and interned labels) before this one, so pin it.
	if _, ok := res.Metrics.Gauges["props.dict_size"]; ok {
		res.Metrics.Gauges["props.dict_size"] = 0
	}
	// Scan-engine pool traffic and throughput vary with scheduling and
	// wall clock; pinning (unconditionally) both stabilizes the values
	// and locks the metric names into the golden schema.
	res.Metrics.Counters["storage.scan.pool_hits"] = 0
	res.Metrics.Counters["storage.scan.pool_misses"] = 0
	res.Metrics.Gauges["storage.scan.bytes_per_sec"] = 0
	var walk func(spans []obs.AggregatedSpan)
	walk = func(spans []obs.AggregatedSpan) {
		for i := range spans {
			spans[i].TotalMS = 0
			walk(spans[i].Children)
		}
	}
	walk(res.Spans)
}

// TestReportGoldenSchema locks the BENCH_*.json record schema: run the
// deterministic fixture instrumented, normalize timings, and compare
// byte-for-byte with the golden file. Run with -update to regenerate
// after an intentional schema change (and update README/DESIGN docs).
func TestReportGoldenSchema(t *testing.T) {
	res := RunInstrumented(fakeExperiment(), Config{Scale: 1, Parallelism: 1, Seed: 1})
	normalizeResult(&res)
	got, err := json.MarshalIndent([]RunResult{res}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("report JSON drifted from golden schema\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRunInstrumented checks the envelope invariants that the golden
// file cannot express: tracing state restoration and per-run resets.
func TestRunInstrumented(t *testing.T) {
	obs.SetTracing(false)
	res := RunInstrumented(fakeExperiment(), Config{Scale: 1, Parallelism: 1, Seed: 1})
	if obs.TracingEnabled() {
		t.Error("tracing left enabled after RunInstrumented")
	}
	if res.Exp != "fake" {
		t.Errorf("exp = %q", res.Exp)
	}
	if len(res.Rows) != 3 || len(res.Rows[0].Rows) != 1 {
		t.Errorf("rows = %+v", res.Rows)
	}
	for _, name := range []string{
		"dataflow.task_retries", "dataflow.task_failures",
		"dataflow.tasks_cancelled", "storage.corrupt_chunks_skipped",
		"storage.fsyncs", "storage.manifest_mismatches",
		"storage.recovered_saves",
	} {
		if res.Metrics.Counters[name] == 0 {
			t.Errorf("fixture did not drive counter %s: %+v", name, res.Metrics.Counters)
		}
	}
	if len(res.Spans) != 1 || res.Spans[0].Name != "fake.run" {
		t.Fatalf("spans = %+v", res.Spans)
	}
	if ch := res.Spans[0].Children; len(ch) != 1 || ch[0].Name != "fake.stage" {
		t.Errorf("children = %+v", res.Spans[0].Children)
	}
	if res.Metrics.Counters["dataflow.jobs"] == 0 {
		t.Errorf("dataflow.jobs missing from metrics: %+v", res.Metrics.Counters)
	}
	// A second run must not accumulate the first run's spans/metrics.
	res2 := RunInstrumented(fakeExperiment(), Config{Scale: 1, Parallelism: 1, Seed: 1})
	if !reflect.DeepEqual(res.Spans[0].Count, res2.Spans[0].Count) {
		t.Errorf("span counts accumulated across runs: %d vs %d", res.Spans[0].Count, res2.Spans[0].Count)
	}
	if res.Metrics.Counters["dataflow.jobs"] != res2.Metrics.Counters["dataflow.jobs"] {
		t.Errorf("metrics accumulated across runs: %d vs %d",
			res.Metrics.Counters["dataflow.jobs"], res2.Metrics.Counters["dataflow.jobs"])
	}
}

// TestWriteJSON round-trips a result file through the decoder.
func TestWriteJSON(t *testing.T) {
	res := RunInstrumented(fakeExperiment(), Config{Scale: 1, Parallelism: 1, Seed: 1})
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteJSON(path, []RunResult{res}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []RunResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written file is not valid JSON: %v", err)
	}
	if len(back) != 1 || back[0].Exp != "fake" {
		t.Errorf("round-trip = %+v", back)
	}
}
