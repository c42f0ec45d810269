package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// run is the state one workload run shares across its phases.
type run struct {
	workload string
	sz       sizes
	seed     int64
	window   time.Duration
	traced   bool
	work     *workDir

	// tr is nil on an untraced run. On a traced run the window is cut
	// into slices and spans are recorded on every other one, so traced
	// and untraced operations see the same cache state and the same
	// noise, and their p50s can be compared.
	tr          *tracer
	windowStart time.Time

	mu       sync.Mutex
	problems []string

	config  runConfig
	metrics map[string]float64
	samples map[string]int
	notes   []string
	// attempted and failed count the operations of the timed window.
	attempted, failed int
}

const traceSlices = 10

// tracerAt returns the tracer to use for an operation starting now.
func (r *run) tracerAt(now time.Time) *tracer {
	if r.tr == nil {
		return nil
	}
	slice := r.window / traceSlices
	if slice <= 0 || (now.Sub(r.windowStart)/slice)%2 == 0 {
		return nil
	}
	return r.tr
}

// problem records a correctness failure; any problem makes the run
// incorrect and the command exit non-zero.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// counters is a snapshot of the program's exported counters.
type counters map[string]int64

func readCounters() counters { return counters(obs.Default().Snapshot().Counters) }

// obsReading is what a window keeps of one snapshot of the program's
// registry.
type obsReading struct {
	counters counters
	gauges   map[string]int64
	// queued counts the admissions that had to wait in the limiter's
	// queue: the observations of its wait histogram.
	queued int64
	// legP95MS is the p95 of the program's histogram of shard leg
	// latencies, which keeps the latest 4096 samples.
	legP95MS float64
}

func readObs() obsReading {
	s := obs.Default().Snapshot()
	return obsReading{counters(s.Counters), s.Gauges, s.Histograms["resil.admit.wait"].Count, s.Histograms["shard.leg_latency"].P95MS}
}

// delta is the growth of the named counter since the earlier snapshot.
func (c counters) delta(since counters, name string) float64 {
	return float64(c[name] - since[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowStats is what every workload reads when its timed window opens
// and again when it closes.
type windowStats struct {
	start, end    time.Time
	cpu           time.Duration // at the start; what the window used once closed
	mem, memEnd   runtime.MemStats
	before, after obsReading
}

// beginWindow opens the timed window; spans are recorded relative to
// its start.
func (r *run) beginWindow() *windowStats {
	runtime.GC()
	w := &windowStats{before: readObs()}
	runtime.ReadMemStats(&w.mem)
	w.start, w.cpu = time.Now(), cpuTime()
	r.windowStart = w.start
	return w
}

func (w *windowStats) close() {
	w.end, w.cpu = time.Now(), cpuTime()-w.cpu
	runtime.ReadMemStats(&w.memEnd)
	w.after = readObs()
}

// delta is the growth of the named counter over the window.
func (w *windowStats) delta(name string) float64 {
	return w.after.counters.delta(w.before.counters, name)
}

// windowMetrics fills the timings and the allocation metrics a closed
// window yields. lat holds the latency of every correct query, ops counts the
// completed operations the CPU time and the allocations are spread over
// (queries, and appends where there are any), and spun is CPU time the
// load generator burned polling the clock. Every time is as timed: the
// host's speed drifts, and README.md says how two commits are compared
// in spite of it.
func (r *run) windowMetrics(w *windowStats, lat []time.Duration, ops float64, spun time.Duration) {
	sortDurations(lat)
	p50v, _ := percentile(lat, 0.5)
	// The tail is the p95 when ten samples lie beyond it, else the
	// highest percentile that has them.
	tail, tailQ := supportedTail(lat, 0.95)
	r.samples["query"] = len(lat)
	r.samples["query_tail_pct"] = int(100 * tailQ)
	r.set("harness.query_p50_ms", msOf(p50v))
	r.set("harness.query_p95_ms", msOf(tail))
	r.set("harness.query_per_s", float64(len(lat))/w.end.Sub(w.start).Seconds())
	r.set("harness.cpu_ms_per_op", ratio(msOf(w.cpu-spun), ops))
	r.set("allocs_per_op", ratio(float64(w.memEnd.Mallocs-w.mem.Mallocs), ops))
	r.set("alloc_kb_per_op", ratio(float64(w.memEnd.TotalAlloc-w.mem.TotalAlloc)/1024, ops))
	if r.traced {
		r.set("harness.samples", float64(len(lat)))
	}
}

// retainedHeapMiB is what the program still holds once the window is
// over; two collections, because the second empties what the first
// moved into the sync.Pools' victim caches.
func retainedHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// traceOverhead compares the p50 of operations that recorded spans with
// the p50 of those that did not.
func traceOverheadPct(traced, untraced []time.Duration) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	a, b := p50(append([]time.Duration(nil), traced...)), p50(append([]time.Duration(nil), untraced...))
	if b == 0 {
		return 0
	}
	return 100 * (float64(a) - float64(b)) / float64(b)
}

// spanMetrics fills the span.* metrics from the recorded spans: the
// mean duration of a traced operation and the share of it each layer's
// spans account for by self time.
func (r *run) spanMetrics() {
	spans := r.tr.closed()
	var total, harness float64
	self := make(map[string]float64)
	for _, st := range selfTimes(spans) {
		total += float64(st.SelfNS)
		self[st.Name] = float64(st.SelfNS)
		if layerOf(st.Name) == "harness" {
			harness += float64(st.SelfNS)
		}
	}
	r.set("span.op_ms_mean", ratio(total/1e6, float64(countOps(spans))))
	r.set("span.storage_load_share", ratio(self["storage.load"], total))
	r.set("span.core_zoom_share", ratio(self["core.zoom"], total))
	r.set("span.core_coalesce_share", ratio(self["core.coalesce"], total))
	r.set("span.core_materialise_share", ratio(self["core.materialise"], total))
	r.set("span.serve_handler_share", ratio(self["serve.handler"], total))
	r.set("span.harness_share", ratio(harness, total))
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
