package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// discardWriter is a reusable ResponseWriter that keeps the status and
// the body length, so an allocation count covers the handler alone.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// reusableRequest serves one JSON body over and over through one
// request value: serve resets the body reader, the writer and the
// headers, then calls the handler.
type reusableRequest struct {
	req  *http.Request
	rd   *bytes.Reader
	body io.ReadCloser
	raw  []byte
	w    *discardWriter
}

func newReusableRequest(t *testing.T, path string, body any) *reusableRequest {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(raw)
	return &reusableRequest{
		req: httptest.NewRequest("POST", path, nil),
		rd:  rd, body: io.NopCloser(rd), raw: raw,
		w: &discardWriter{h: make(http.Header)},
	}
}

func (rr *reusableRequest) serve(h http.Handler) {
	rr.rd.Reset(rr.raw)
	rr.req.Body = rr.body
	clear(rr.w.h)
	rr.w.code, rr.w.n = http.StatusOK, 0
	h.ServeHTTP(rr.w, rr.req)
}

// TestHitTakesNoHandleLock holds the handle lock — what an append, a
// reload or a compaction holds for milliseconds — and sends a resident
// hit: it must answer from the published state without waiting.
func TestHitTakesNoHandleLock(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := WZoomRequest{Graph: "fig1", Window: "3 units"}
	for i := 0; i < 2; i++ {
		if w := doJSON(t, s, "POST", "/v1/wzoom", req); w.Code != http.StatusOK {
			t.Fatalf("warm-up %d: %d %s", i, w.Code, w.Body)
		}
	}
	h := s.graphs["fig1"]
	h.mu.Lock()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- doJSON(t, s, "POST", "/v1/wzoom", req) }()
	select {
	case w := <-done:
		h.mu.Unlock()
		if w.Code != http.StatusOK || w.Header().Get("X-TGraph-Cache") != "hit" {
			t.Errorf("hit under a held handle lock: %d %q, want 200 hit", w.Code, w.Header().Get("X-TGraph-Cache"))
		}
	case <-time.After(5 * time.Second):
		h.mu.Unlock()
		<-done
		t.Fatal("a resident hit waited for the handle lock")
	}
}

// TestHitAllocations pins the cost of a resident hit through the whole
// handler: admission, body read, spec lookup, state load, key, the cache
// hit and the response headers. The two allocations left are the cache
// key string and http.MaxBytesReader; reading MANIFEST per hit, or
// setting a header through Header().Set, costs more.
func TestHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled buffers at random")
	}
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name, path string
		body       any
	}{
		{"azoom", "/v1/azoom", AZoomRequest{Graph: "fig1", GroupBy: "school", Count: "n"}},
		{"wzoom", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units", VQuant: "exists"}},
		{"pipeline", "/v1/pipeline", PipelineRequest{Graph: "fig1", Steps: []StepRequest{
			{Op: "range", Start: 1, End: 8},
			{Op: "azoom", GroupBy: "school"},
			{Op: "wzoom", Window: "2 units"},
		}}},
	}
	for _, tc := range cases {
		rr := newReusableRequest(t, tc.path, tc.body)
		rr.serve(h) // miss: computes and caches
		rr.serve(h) // first hit warms the pools
		if rr.w.code != http.StatusOK || rr.w.h.Get("X-TGraph-Cache") != "hit" {
			t.Fatalf("%s: warm hit answered %d %q", tc.name, rr.w.code, rr.w.h.Get("X-TGraph-Cache"))
		}
		allocs := testing.AllocsPerRun(50, func() { rr.serve(h) })
		t.Logf("%s: %.0f allocs per resident hit", tc.name, allocs)
		if allocs > 2 {
			t.Errorf("%s: %.0f allocs per resident hit, want at most 2", tc.name, allocs)
		}
		if rr.w.h.Get("X-TGraph-Cache") != "hit" {
			t.Errorf("%s: measured requests were not hits", tc.name)
		}
	}
}

// TestHitReadsNoFile renames the graph directory away after warm-up: a
// resident hit reads nothing from it, so hits still answer clean 200s.
// Only a reload looks; it fails and marks the graph stale, and the
// graph keeps answering from its cached bodies.
func TestHitReadsNoFile(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	req := WZoomRequest{Graph: "fig1", Window: "3 units"}
	warm := doJSON(t, s, "POST", "/v1/wzoom", req)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", warm.Code, warm.Body)
	}
	if err := os.Rename(dir, dir+".moved"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w := doJSON(t, s, "POST", "/v1/wzoom", req)
		if w.Code != http.StatusOK || w.Header().Get("X-TGraph-Cache") != "hit" || w.Header().Get("X-TGraph-Degraded") != "" {
			t.Fatalf("hit %d with the directory gone: %d cache=%q degraded=%q, want a clean 200 hit",
				i, w.Code, w.Header().Get("X-TGraph-Cache"), w.Header().Get("X-TGraph-Degraded"))
		}
		if !bytes.Equal(w.Body.Bytes(), warm.Body.Bytes()) {
			t.Fatalf("hit %d differs from the warm-up body", i)
		}
	}
	if w := doJSON(t, s, "POST", "/v1/graphs/fig1/reload", nil); w.Code == http.StatusOK {
		t.Fatalf("reload of a missing directory succeeded: %s", w.Body)
	}
	w := doJSON(t, s, "POST", "/v1/wzoom", req)
	if w.Code != http.StatusOK || w.Header().Get("X-TGraph-Cache") != "hit" || w.Header().Get("X-TGraph-Degraded") != "stale-graph" {
		t.Errorf("after the failed reload: %d cache=%q degraded=%q, want a stale-graph hit",
			w.Code, w.Header().Get("X-TGraph-Cache"), w.Header().Get("X-TGraph-Degraded"))
	}
	if w := doJSON(t, s, "GET", "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz with a stale graph = %d, want 503", w.Code)
	}
}

// TestGraphsTakesNoHandleLock holds the handle lock, as an append or an
// inline compaction does, and polls /v1/graphs: the listing answers
// from the published state — WAL sequence and appended count included —
// without waiting.
func TestGraphsTakesNoHandleLock(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 7, Start: 1, End: 3, Props: map[string]string{"type": "person"}},
		{Kind: "vertex", ID: 8, Start: 2, End: 4, Props: map[string]string{"type": "person"}},
	}}); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	h := s.graphs["fig1"]
	h.mu.Lock()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- doJSON(t, s, "GET", "/v1/graphs", nil) }()
	select {
	case w := <-done:
		h.mu.Unlock()
		var infos []GraphInfo
		if err := json.Unmarshal(w.Body.Bytes(), &infos); w.Code != http.StatusOK || err != nil {
			t.Fatalf("graphs under a held handle lock: %d %v %s", w.Code, err, w.Body)
		}
		if len(infos) != 1 || !infos[0].Loaded || infos[0].WALSeq != 2 || infos[0].Appended != 2 {
			t.Errorf("graphs = %+v, want fig1 loaded at walSeq 2 with 2 appended", infos)
		}
	case <-time.After(5 * time.Second):
		h.mu.Unlock()
		<-done
		t.Fatal("a /v1/graphs poll waited for the handle lock")
	}
}
