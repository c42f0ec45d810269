package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/temporal"
)

// TestChaosServeOverload drives the server at 4x its admission capacity
// (MaxInflight + QueueDepth) with a seeded Delay fault holding every
// admitted request, and proves the overload is shed instead of queued
// unboundedly: every request answers either 200 or 429 (zero 5xx), at
// least one is shed, and the shed count matches serve.shed_requests.
func TestChaosServeOverload(t *testing.T) {
	inj := faults.New(42, faults.Rule{
		Site: "serve.handler", Kind: faults.Delay, Every: 1, Delay: 30 * time.Millisecond,
	})
	cfg := Config{
		MaxInflight: 2,
		QueueDepth:  2,
		FaultHook:   inj.ServeHook(),
	}
	s, _ := newTestServer(t, cfg)
	req := WZoomRequest{Graph: "fig1", Window: "3 units"}

	// Warm-up: load the graph and populate the cache so the saturation
	// wave measures admission, not disk.
	if w := doJSON(t, s, "POST", "/v1/wzoom", req); w.Code != http.StatusOK {
		t.Fatalf("warmup: %d %s", w.Code, w.Body)
	}

	shedBefore := obs.Default().Counter("serve.shed_requests").Value()
	const wave = 16 // 4x the capacity of MaxInflight(2) + QueueDepth(2)
	codes := make([]int, wave)
	bodies := make([][]byte, wave)
	var wg sync.WaitGroup
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := doJSON(t, s, "POST", "/v1/wzoom", req)
			codes[i] = w.Code
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()

	var ok200, shed429, other int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
			var e errorJSON
			if err := json.Unmarshal(bodies[i], &e); err != nil || e.Kind != "shed" {
				t.Errorf("shed body = %s (err %v), want kind shed", bodies[i], err)
			}
		default:
			other++
			t.Errorf("request %d answered %d (%s), want 200 or 429", i, c, bodies[i])
		}
	}
	if shed429 == 0 {
		t.Error("4x saturation shed nothing: the queue is unbounded")
	}
	if ok200 == 0 {
		t.Error("no request was admitted during the wave")
	}
	if d := obs.Default().Counter("serve.shed_requests").Value() - shedBefore; d != int64(shed429) {
		t.Errorf("serve.shed_requests advanced by %d, observed %d shed responses", d, shed429)
	}
	if got := s.limiter.Inflight(); got != 0 {
		t.Errorf("inflight after wave = %d, want 0", got)
	}
	if got := s.limiter.Queued(); got != 0 {
		t.Errorf("queued after wave = %d, want 0", got)
	}
}

// TestChaosReloadBreaker corrupts a re-save with the seeded injector —
// the crash tears the MANIFEST mid-write, exactly the state a power cut
// during the manifest commit leaves — and proves graceful degradation:
// queries never notice the torn directory, the reloads that read it
// fail and mark the graph stale while it keeps answering
// byte-identically from the last-good graph (zero 5xx on queries), the
// reload breaker trips open after the configured consecutive failures
// and then refuses reloads without touching the disk, and after repair
// plus the cooldown a single reload probes, loads the new graph and
// closes the breaker.
func TestChaosReloadBreaker(t *testing.T) {
	dir := t.TempDir()
	saveFigure1(t, dir)

	// Deterministic breaker clock, anchored at the real now.
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	// attempts counts the reload attempts that got past the breaker: the
	// serve.reload site fires once per attempt, before the disk is read.
	var attempts atomic.Int64
	cfg := Config{
		Graphs:           []GraphConfig{{Name: "fig1", Dir: dir}},
		CacheBytes:       1 << 20,
		Parallelism:      2,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		breakerNow:       clock,
		FaultHook: func(site string) error {
			if site == "serve.reload" {
				attempts.Add(1)
			}
			return nil
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := WZoomRequest{Graph: "fig1", Window: "3 units"}
	post := func() (int, []byte, string) {
		w := doJSON(t, s, "POST", "/v1/wzoom", req)
		return w.Code, w.Body.Bytes(), w.Header().Get("X-TGraph-Degraded")
	}
	reload := func() *httptest.ResponseRecorder {
		return doJSON(t, s, "POST", "/v1/graphs/fig1/reload", nil)
	}

	code, good, degr := post()
	if code != http.StatusOK || degr != "" {
		t.Fatalf("healthy request: %d degraded=%q", code, degr)
	}

	// Corrupting re-save: the seeded injector crashes the save during
	// the MANIFEST's own atomic write (hit 5 of storage.write.short — 4
	// data files commit first), leaving a torn MANIFEST.tmp; the rename
	// lands the torn bytes on the final name, as a crash straddling the
	// commit boundary would.
	inj := faults.New(7, faults.Rule{Site: "storage.write.short", Kind: faults.Crash, Every: 5})
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	newG := core.NewVE(ctx,
		[]core.VertexTuple{
			{ID: 9, Interval: temporal.MustInterval(1, 4), Props: props.New("type", "person")},
		}, nil)
	if err := storage.SaveGraph(dir, newG, storage.SaveOptions{FaultHook: inj.WriteHook()}); err == nil {
		t.Fatal("faulted re-save reported success")
	}
	if got := inj.Injected()["storage.write.short"]; got != 1 {
		t.Fatalf("injected crashes at storage.write.short = %d, want exactly 1", got)
	}
	manifest := filepath.Join(dir, storage.ManifestFile)
	if err := os.Rename(manifest+".tmp", manifest); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Stamp(dir); err == nil {
		t.Fatal("stamp of torn directory succeeded; the corruption did not take")
	}

	// Queries do not look at the directory: still clean.
	if code, body, degr := post(); code != http.StatusOK || degr != "" || !bytes.Equal(body, good) {
		t.Fatalf("request before any reload: %d degraded=%q identical=%v, want the clean old answer", code, degr, bytes.Equal(body, good))
	}

	// Reloads 1 and 2 (threshold) read the torn MANIFEST and fail; each
	// leaves the graph stale, answering byte-identically from the
	// last-good graph; then the breaker trips open.
	degradedBefore := obs.Default().Counter("serve.degraded_requests").Value()
	for i := 0; i < 2; i++ {
		if w := reload(); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("reload %d of a torn directory: %d %s, want 503", i, w.Code, w.Body)
		}
		code, body, degr := post()
		if code != http.StatusOK {
			t.Fatalf("degraded request %d: %d %s, want 200", i, code, body)
		}
		if degr != "stale-graph" {
			t.Errorf("degraded request %d: X-TGraph-Degraded = %q, want stale-graph", i, degr)
		}
		if !bytes.Equal(body, good) {
			t.Errorf("degraded request %d not byte-identical to last committed response", i)
		}
	}
	h := s.graphs["fig1"]
	if st := h.breaker.State(); st.String() != "open" {
		t.Fatalf("breaker after %d consecutive failures = %v, want open", 2, st)
	}

	// With the breaker open a reload is refused before it touches the
	// disk; queries still answer degraded.
	tried := attempts.Load()
	if w := reload(); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "breaker-open") {
		t.Fatalf("open-breaker reload: %d %s, want 503 breaker-open", w.Code, w.Body)
	}
	if n := attempts.Load() - tried; n != 0 {
		t.Errorf("the open breaker let %d reload attempts through", n)
	}
	code, body, degr := post()
	if code != http.StatusOK || degr != "stale-graph" || !bytes.Equal(body, good) {
		t.Fatalf("open-breaker request: %d degraded=%q identical=%v, want degraded 200", code, degr, bytes.Equal(body, good))
	}
	if d := obs.Default().Counter("serve.degraded_requests").Value() - degradedBefore; d != 3 {
		t.Errorf("serve.degraded_requests advanced by %d, want 3", d)
	}

	// Not ready while degraded.
	if w := doJSON(t, s, "GET", "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while degraded = %d, want 503", w.Code)
	}

	// Repair: clean the litter and re-run the save, as an operator (or
	// the recovery tooling) would.
	if _, err := storage.RepairDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := storage.SaveGraph(dir, newG, storage.SaveOptions{}); err != nil {
		t.Fatal(err)
	}

	// Repaired but inside the cooldown: the breaker still refuses, and
	// queries still answer from the stale graph.
	if w := reload(); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cooldown reload: %d, want 503 from the open breaker", w.Code)
	}
	code, body, degr = post()
	if code != http.StatusOK || degr != "stale-graph" || !bytes.Equal(body, good) {
		t.Fatalf("cooldown request: %d degraded=%q, want degraded 200 from stale graph", code, degr)
	}

	// Past the cooldown one reload probes, loads the repaired directory
	// and closes the breaker; the response is the new graph's.
	advance(2 * time.Minute)
	tried = attempts.Load()
	if w := reload(); w.Code != http.StatusOK {
		t.Fatalf("post-cooldown reload: %d %s, want 200", w.Code, w.Body)
	}
	if n := attempts.Load() - tried; n != 1 {
		t.Errorf("the half-open probe made %d reload attempts, want 1", n)
	}
	if st := h.breaker.State(); st.String() != "closed" {
		t.Errorf("breaker after successful probe = %v, want closed", st)
	}
	code, body, degr = post()
	if code != http.StatusOK || degr != "" {
		t.Fatalf("post-repair request: %d degraded=%q, want clean 200", code, degr)
	}
	if bytes.Equal(body, good) {
		t.Error("post-repair response identical to the old graph's; reload did not happen")
	}
	var g GraphJSON
	if err := json.Unmarshal(body, &g); err != nil || len(g.Vertices) != 1 {
		t.Errorf("post-repair response = %s (err %v), want the 1-vertex repaired graph", body, err)
	}
	if w := doJSON(t, s, "GET", "/readyz", nil); w.Code != http.StatusOK {
		t.Errorf("readyz after the repair = %d, want 200", w.Code)
	}
}
