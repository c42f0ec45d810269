package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestPercentileNearestRankAndTailRule(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 200; i++ {
		d = append(d, ms(i))
	}
	for _, c := range []struct {
		q      float64
		want   time.Duration
		enough bool
	}{{0.5, ms(100), true}, {0.95, ms(190), true}, {0.99, ms(198), false}} {
		got, ok := percentile(d, c.q)
		if got != c.want || ok != c.enough {
			t.Errorf("percentile(1..200ms, %v) = %v, %v; want %v, %v", c.q, got, ok, c.want, c.enough)
		}
	}
	// 199 samples leave 9 beyond the p95: one short.
	if _, ok := percentile(d[:199], 0.95); ok {
		t.Error("199 samples reported as enough for a p95")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample reported as enough")
	}
}

func TestSupportedTailLowersThePercentile(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 50; i++ {
		d = append(d, ms(i))
	}
	got, q := supportedTail(d, 0.95)
	if got != ms(40) || q != 0.8 {
		t.Errorf("supportedTail(1..50ms, 0.95) = %v at q=%v; want 40ms at 0.8", got, q)
	}
	if got, q := supportedTail(d[:12], 0.95); got != ms(6) || q != 0.5 {
		t.Errorf("12 samples: got %v at q=%v; want the median", got, q)
	}
}

// A hand-built tree: root [0,100) with children a [10,40) and b
// [30,70) that overlap on [30,40), and a grandchild under a.
func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "harness.op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "storage.load", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 1, Name: "core.zoom", Start: 30, End: 70},
		{ID: 3, Parent: 1, Op: 1, Name: "storage.decode", Start: 15, End: 25},
		{ID: 4, Parent: 9, Op: 2, Name: "core.zoom", Start: 200, End: 230}, // parent was dropped
	}
	want := map[string][3]int64{ // count, self, wall
		"harness.op":     {1, 40, 100}, // 100 - union([10,40),[30,70)) = 100 - 60
		"storage.load":   {1, 20, 30},
		"core.zoom":      {2, 70, 70},
		"storage.decode": {1, 10, 10},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d span names, want %d", len(got), len(want))
	}
	for _, st := range got {
		w := want[st.Name]
		if int64(st.Count) != w[0] || st.SelfNS != w[1] || st.WallNS != w[2] {
			t.Errorf("%s: count %d self %d wall %d; want %v", st.Name, st.Count, st.SelfNS, st.WallNS, w)
		}
	}
	if n := countOps(spans); n != 1 {
		t.Errorf("countOps = %d, want 1 root", n)
	}
	if layerOf("storage.load") != "storage" || layerOf("plain") != "plain" {
		t.Error("layerOf")
	}
}

type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time         { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) { c.now = t }

func TestOpenLoopChargesStallsToDelayedRequests(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	service := []time.Duration{ms(5), ms(30), ms(5), ms(5), ms(40), ms(5)}
	var sent []int
	var latency []time.Duration
	res := openLoop(clk, start, schedule(len(service), ms(10), 0, nil), ms(25), func(i int, due time.Time) {
		sent = append(sent, i)
		clk.now = clk.now.Add(service[i])
		latency = append(latency, clk.now.Sub(due))
	})
	// Request 1 overruns to t=40: 2 and 3 go out late and pay for it;
	// request 4 overruns to t=90 and 5, 40ms behind, is given up on.
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(sent, want) {
		t.Errorf("sent %v, want %v", sent, want)
	}
	if want := []time.Duration{ms(5), ms(30), ms(25), ms(20), ms(50)}; !reflect.DeepEqual(latency, want) {
		t.Errorf("latency from due time %v, want %v", latency, want)
	}
	if want := []time.Duration{0, 0, ms(20), ms(15), ms(10)}; !reflect.DeepEqual(res.late, want) {
		t.Errorf("lateness %v, want %v", res.late, want)
	}
	if res.unsent != 1 {
		t.Errorf("unsent = %d, want 1", res.unsent)
	}
}

func TestScheduleKeepsOrderAndDistance(t *testing.T) {
	due := schedule(200, ms(100), 0.25, rand.New(rand.NewSource(1)))
	for i := range due {
		if off := due[i] - time.Duration(i)*ms(100); off < -ms(25) || off > ms(25) {
			t.Fatalf("request %d moved by %v, more than a quarter of the interval", i, off)
		}
		if i > 0 && due[i]-due[i-1] < ms(50) {
			t.Fatalf("requests %d and %d are %v apart", i-1, i, due[i]-due[i-1])
		}
	}
	if even := schedule(3, ms(10), 0, nil); !reflect.DeepEqual(even, []time.Duration{0, ms(10), ms(20)}) {
		t.Errorf("schedule without jitter = %v", even)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
}

func scale2(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func fixtureRecords(workload string, metric string, values ...float64) []record {
	var out []record
	for i, v := range values {
		m := map[string]metricValue{}
		for _, d := range reported(false) {
			m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		m[metric] = metricValue{Value: v, Unit: "ms"}
		out = append(out, record{Workload: workload, Correct: true, Attempted: 1, Metrics: m, Config: runConfig{Seed: int64(i)}})
	}
	return out
}

func writeRecords(t *testing.T, recs []record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "set.jsonl")
	for _, r := range recs {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "harness.query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "harness.query_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 { return scale2(steady, f) }
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower", lower, steady, scale(1.05), "ok"},
		{"20% slower", lower, steady, scale(1.20), "regressed"},
		{"20% faster", lower, steady, scale(0.80), "ok"},
		{"throughput down 20%", higher, steady, scale(0.80), "regressed"},
		{"throughput up 20%", higher, steady, scale(1.20), "ok"},
		{"spread wider than bound", lower, noisy, noisy, "unresolved"},
		{"noisy sets whose medians differ by less than their spread", lower, noisy, scale2(noisy, 1.3), "unresolved"},
		{"noisy sets, b worse by more than the spread", lower, noisy, scale2(noisy, 2), "regressed"},
	} {
		if _, _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	a := writeRecords(t, fixtureRecords(wlHot, "harness.query_p50_ms", steady...))
	b := writeRecords(t, fixtureRecords(wlHot, "harness.query_p50_ms", scale(1.3)...))
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil || !regressed {
		t.Fatalf("compareFiles(a, 1.3a) = %v, %v; want regressed", regressed, err)
	}
	if !strings.Contains(out.String(), "regressed") || strings.Count(out.String(), "regressed") != 1 {
		t.Errorf("want exactly one regressed row:\n%s", out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, a, a); err != nil || regressed {
		t.Errorf("compareFiles(a, a) = %v, %v; want no regression\n%s", regressed, err, out.String())
	}
	bad := fixtureRecords(wlHot, "harness.query_p50_ms", steady...)
	bad[3].Correct, bad[3].Failed = false, 1
	if regressed, _ := compareFiles(&out, a, writeRecords(t, bad)); !regressed {
		t.Error("an incorrect run in a set must count as a regression")
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in config.go")

// benchmarkJSON is the file's contract: exactly these keys.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eJSON     `json:"end_to_end"`
	PerLayer   []layerJSON   `json:"per_layer"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkJSON() benchmarkJSON {
	doc := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 20, Workloads: workloads}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	return doc
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json") // tests run in the package directory
	want := wantBenchmarkJSON()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the tables in config.go; run go test -run BenchmarkJSON -update")
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s names no end-to-end metric it should move", d.Name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a scale where
// the numbers mean nothing, and checks the shape of what comes out:
// every metric BENCHMARK.json names, once, with its unit, nothing
// failed, and every per-layer metric measured by some workload.
func TestSmoke(t *testing.T) {
	outDir := t.TempDir()
	reached := make(map[string]bool)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := execute(w.Name, smokeSizes, 7, 200*time.Millisecond, traced, outDir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			defs := reported(traced)
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, present %v", w.Name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: %d/%d failed", w.Name, traced, rec.Failed, rec.Attempted)
			}
			for _, p := range rec.Problems {
				t.Errorf("%s traced=%v: %s", w.Name, traced, p)
			}
			if !rec.Correct {
				t.Errorf("%s traced=%v: run not correct", w.Name, traced)
			}
			var line struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(rec.resultLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: result line %v", w.Name, err)
			}
			want := endToEnd // what BENCHMARK.json promises the driver
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				if _, ok := line.Metrics[d.Name]; !ok {
					t.Errorf("%s traced=%v: result line lacks %s", w.Name, traced, d.Name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				unreached := make(map[string]bool)
				for _, name := range rec.Unreached {
					unreached[name] = true
				}
				for _, d := range perLayer {
					reached[d.Name] = reached[d.Name] || !unreached[d.Name]
				}
			}
		}
	}
	for _, d := range perLayer {
		if !reached[d.Name] {
			t.Errorf("no workload measures %s", d.Name)
		}
	}
}
