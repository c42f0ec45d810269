// Command benchmark is the repository's benchmark: five workloads over
// the library and the query service, five bounded end-to-end metrics,
// four timings and a traced run that reports every layer. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory says why they were chosen and how to compare two commits.
//
// It imports the program's packages and measures them from outside; it
// must not change between two commits that are compared.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile holds what seed 42 must produce at full size: the
// fingerprint of each generated dataset and the digest of each
// workload's checked results.
type goldenFile struct {
	Seed         int64             `json:"seed"`
	Fingerprints map[string]string `json:"fingerprints"`
	Results      map[string]string `json:"results"`
}

// runConfig is the reproducibility record of one run.
type runConfig struct {
	Seed          int64             `json:"seed"`
	WindowSeconds float64           `json:"window_seconds"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	NumCPU        int               `json:"num_cpu"`
	GoVersion     string            `json:"go_version"`
	Commit        string            `json:"git_commit"`
	Sizes         map[string]any    `json:"sizes"`
	Fingerprints  map[string]string `json:"dataset_fingerprints"`
	ResultDigest  string            `json:"result_digest"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -record appends it and -compare reads it.
type record struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Config    runConfig              `json:"config"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	// Unreached names the per-layer metrics this workload has no
	// measurement for: it never enters the layer. The result line must
	// carry every name, so they read 0 there.
	Unreached []string `json:"unreached,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Problems  []string `json:"problems,omitempty"`
}

func (s sizes) record() map[string]any {
	return map[string]any{
		"persons": s.persons, "friendships_per_person": s.friendships, "first_names": s.firstNames, "snapshots": s.snapshots,
		"words": s.words, "pairs_per_year": s.pairsPerYear, "chunk_rows": s.chunkRows,
		"hot_cache_bytes": s.hotCacheBytes, "churn_cache_bytes": s.churnCacheBytes,
		"ingest_persons": s.ingestPersons, "appends_per_s": s.appendsPerSec, "queries_per_s": s.queriesPerSec,
		"deltas_per_batch": s.batch, "server_parallelism": serverParallelism, "max_inflight": maxInflight,
		"queue_depth": queueDepth, "wal_sync_mode": walSyncMode,
	}
}

// golden checks the run's dataset fingerprints and result digest
// against golden.json when the run is the one golden.json describes:
// seed 42 at full size.
func (r *run) golden(key, resultDigest string, data ...*dataset) {
	r.config.ResultDigest = resultDigest
	for _, d := range data {
		name := fmt.Sprintf("%s-%d", d.name, len(d.vs))
		r.config.Fingerprints[name] = d.fingerprint
		r.notes = append(r.notes, fmt.Sprintf("dataset %s: %d vertex states, %d edge states over %d time units", name, len(d.vs), len(d.es), d.lifetime().Duration()))
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		r.problem("golden.json: %v", err)
		return
	}
	if r.seed != g.Seed || r.sz != fullSizes {
		return
	}
	for name, got := range r.config.Fingerprints {
		if want := g.Fingerprints[name]; got != want {
			r.problem("dataset %s has fingerprint %s, golden.json says %s: internal/datagen changed the benchmark's inputs; numbers are not comparable", name, got, want)
		}
	}
	if want := g.Results[key]; resultDigest != want {
		r.problem("%s results digest %s, golden.json says %s", key, resultDigest, want)
	}
}

// execute runs one workload once and returns its record.
func execute(workload string, sz sizes, seed int64, window time.Duration, traced bool, outDir string) (record, error) {
	work, err := newWorkDir(outDir)
	if err != nil {
		return record{}, err
	}
	defer work.remove()
	r := &run{workload: workload, sz: sz, seed: seed, window: window, traced: traced, work: work,
		metrics: make(map[string]float64), samples: make(map[string]int)}
	r.config = runConfig{
		Seed: seed, WindowSeconds: window.Seconds(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: os.Getenv("TGRAPH_BENCH_COMMIT"), Sizes: sz.record(),
		Fingerprints: make(map[string]string),
	}
	if r.config.Commit == "" {
		r.config.Commit = "unknown"
	}
	if traced {
		r.tr = newTracer()
	}
	switch workload {
	case wlExplore:
		err = r.runExplore()
	case wlHot, wlChurn, wlShard:
		err = r.runServe()
	case wlIngest:
		err = r.runIngest()
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return record{}, err
	}
	if traced {
		path := filepath.Join(outDir, "trace-"+workload+".json")
		if err := writeTrace(path, workload, seed, r.tr); err != nil {
			return record{}, err
		}
		r.notes = append(r.notes, "spans written to "+path)
	}
	defs := reported(traced)
	rec := record{Workload: workload, Config: r.config, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue), Samples: r.samples, Notes: r.notes, Problems: r.problems}
	if traced {
		rec.Trace = 1
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && !traced {
			return record{}, fmt.Errorf("%s did not measure %s", workload, d.Name)
		}
		if !ok {
			rec.Unreached = append(rec.Unreached, d.Name)
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rec.Correct = len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
	return rec, nil
}

// reported lists what a run measures and prints: the end-to-end metrics
// and the timings when untraced, every per-layer metric when traced.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return append(append([]metricDef(nil), endToEnd...), timings...)
}

// print writes the record for a reader.
func (rec record) print() {
	defs := reported(rec.Trace == 1)
	c := rec.Config
	fmt.Printf("workload %s  seed %d  window %.1fs  trace %d  GOMAXPROCS %d of %d CPUs  %s  commit %s\n",
		rec.Workload, c.Seed, c.WindowSeconds, rec.Trace, c.GOMAXPROCS, c.NumCPU, c.GoVersion, c.Commit)
	for _, name := range sortedKeys(c.Fingerprints) {
		fmt.Printf("  dataset %-12s fingerprint %s\n", name, c.Fingerprints[name])
	}
	fmt.Printf("  results digest %s\n", c.ResultDigest)
	unreached := make(map[string]bool)
	for _, name := range rec.Unreached {
		unreached[name] = true
	}
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		line := fmt.Sprintf("  %-36s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if unreached[d.Name] {
			line = fmt.Sprintf("  %-36s %14s %-6s", d.Name, "not reached", m.Unit)
		}
		switch {
		case d.Name == "harness.query_p50_ms":
			line += fmt.Sprintf("  (%d samples)", rec.Samples["query"])
		case d.Name == "harness.query_p95_ms":
			line += fmt.Sprintf("  (the p%d)", rec.Samples["query_tail_pct"])
		case d.Moves != "" && rec.Trace == 1:
			line += "  -> " + d.Moves
		}
		fmt.Println(line)
	}
	for _, k := range sortedKeys(rec.Samples) {
		fmt.Printf("  samples.%s %d\n", k, rec.Samples[k])
	}
	for _, n := range rec.Notes {
		fmt.Println("  note:", n)
	}
	for _, p := range rec.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	fmt.Printf("  failed_share %d/%d\n", rec.Failed, rec.Attempted)
}

// resultLine is the driver's result object: of an untraced run's
// metrics only BENCHMARK.json's end_to_end list, of a traced run's all.
func (rec record) resultLine() string {
	metrics := rec.Metrics
	if rec.Trace == 0 {
		metrics = make(map[string]metricValue, len(endToEnd))
		for _, d := range endToEnd {
			metrics[d.Name] = rec.Metrics[d.Name]
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 42, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run: report the per-layer metrics")
	recordPath := flag.String("record", "", "append the run's record to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two record files: -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	outDir, err := findOutDir()
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	window := time.Duration(*seconds * float64(time.Second))
	var recs []record
	correct := true
	for _, name := range names {
		rec, err := execute(name, fullSizes, *seed, window, *trace == 1, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(2)
		}
		rec.print()
		if *recordPath != "" {
			if err := appendRecord(*recordPath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(2)
			}
		}
		correct = correct && rec.Correct
		recs = append(recs, rec)
	}
	if *workload == "all" {
		// The all-workloads summary claims nothing: it is a baseline.
		b, err := json.Marshal(struct {
			Runs  []record `json:"runs"`
			Claim any      `json:"claim"`
		}{recs, nil})
		if err != nil {
			panic(err)
		}
		fmt.Println(string(b))
	} else {
		fmt.Println(recs[0].resultLine())
	}
	if !correct {
		os.Exit(1)
	}
}
