package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/qcache"
	"repro/internal/storage"
	"repro/internal/temporal"
)

// saveFigure1 writes the paper's Figure 1 graph into dir.
func saveFigure1(t testing.TB, dir string) {
	t.Helper()
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	vs := []core.VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(1, 7), Props: props.New("type", "person", "school", "MIT")},
		{ID: 2, Interval: temporal.MustInterval(2, 5), Props: props.New("type", "person")},
		{ID: 2, Interval: temporal.MustInterval(5, 9), Props: props.New("type", "person", "school", "CMU")},
		{ID: 3, Interval: temporal.MustInterval(1, 9), Props: props.New("type", "person", "school", "MIT")},
	}
	es := []core.EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(2, 7), Props: props.New("type", "co-author")},
		{ID: 2, Src: 2, Dst: 3, Interval: temporal.MustInterval(5, 9), Props: props.New("type", "co-author")},
	}
	if err := storage.SaveGraph(dir, core.NewVE(ctx, vs, es), storage.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
}

// newTestServer saves Figure 1 and serves it as "fig1".
func newTestServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	saveFigure1(t, dir)
	cfg.Graphs = []GraphConfig{{Name: "fig1", Dir: dir}}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 2
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 1 << 20
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// doJSON drives the handler directly, no network.
func doJSON(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func computations() int64 { return obs.Default().Counter("serve.computations").Value() }

func TestWZoomSmokeAndByteIdenticalHit(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := WZoomRequest{Graph: "fig1", Window: "3 units", VQuant: "exists"}

	before := computations()
	w1 := doJSON(t, s, "POST", "/v1/wzoom", req)
	if w1.Code != http.StatusOK {
		t.Fatalf("cold request: %d %s", w1.Code, w1.Body)
	}
	if got := w1.Header().Get("X-TGraph-Cache"); got != "miss" {
		t.Errorf("cold X-TGraph-Cache = %q, want miss", got)
	}
	var g GraphJSON
	if err := json.Unmarshal(w1.Body.Bytes(), &g); err != nil {
		t.Fatalf("response not GraphJSON: %v", err)
	}
	if g.Rep != "VE" || len(g.Vertices) == 0 {
		t.Errorf("unexpected result: rep=%s vertices=%d", g.Rep, len(g.Vertices))
	}

	w2 := doJSON(t, s, "POST", "/v1/wzoom", req)
	if w2.Code != http.StatusOK {
		t.Fatalf("warm request: %d %s", w2.Code, w2.Body)
	}
	if got := w2.Header().Get("X-TGraph-Cache"); got != "hit" {
		t.Errorf("warm X-TGraph-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cache hit is not byte-identical to the cold run")
	}
	if d := computations() - before; d != 1 {
		t.Errorf("zoom executed %d times across cold+hit, want 1", d)
	}
}

// Two spellings of the same query share one cache entry: the
// fingerprint is built from the parsed specs, not the request text.
func TestCanonicalSpellingSharesEntry(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w1 := doJSON(t, s, "POST", "/v1/wzoom",
		WZoomRequest{Graph: "fig1", Window: "3 months", VQuant: "at least 0.5", VResolve: "last"})
	w2 := doJSON(t, s, "POST", "/v1/wzoom",
		WZoomRequest{Graph: "fig1", Window: "3 units", VQuant: "AT LEAST  0.50", VResolve: "last"})
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("codes: %d %d", w1.Code, w2.Code)
	}
	if got := w2.Header().Get("X-TGraph-Cache"); got != "hit" {
		t.Errorf("respelled request X-TGraph-Cache = %q, want hit", got)
	}
}

// N concurrent identical requests on a cold cache execute the zoom
// exactly once: one miss, the rest shared (or hit), all byte-identical.
func TestConcurrentIdenticalRequestsDedup(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := WZoomRequest{Graph: "fig1", Window: "2 units", EQuant: "all"}

	before := computations()
	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	outcomes := make([]string, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := doJSON(t, s, "POST", "/v1/wzoom", req)
			codes[i] = w.Code
			outcomes[i] = w.Header().Get("X-TGraph-Cache")
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()

	if d := computations() - before; d != 1 {
		t.Errorf("zoom executed %d times for %d identical requests, want 1", d, n)
	}
	misses := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: %d", i, codes[i])
		}
		switch outcomes[i] {
		case "miss":
			misses++
		case "shared", "hit":
		default:
			t.Errorf("request %d: outcome %q", i, outcomes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d: body differs", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d misses, want exactly 1", misses)
	}
}

func TestAZoomAndPipeline(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	w := doJSON(t, s, "POST", "/v1/azoom",
		AZoomRequest{Graph: "fig1", GroupBy: "school", NewType: "school", Count: "members"})
	if w.Code != http.StatusOK {
		t.Fatalf("azoom: %d %s", w.Code, w.Body)
	}
	var g GraphJSON
	if err := json.Unmarshal(w.Body.Bytes(), &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Vertices) == 0 {
		t.Error("azoom returned no vertices")
	}

	w = doJSON(t, s, "POST", "/v1/pipeline", PipelineRequest{Graph: "fig1", Steps: []StepRequest{
		{Op: "azoom", GroupBy: "school", NewType: "school"},
		{Op: "wzoom", Window: "3 units", VQuant: "exists"},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("pipeline: %d %s", w.Code, w.Body)
	}

	// A switch step changes the response representation.
	w = doJSON(t, s, "POST", "/v1/pipeline", PipelineRequest{Graph: "fig1", Steps: []StepRequest{
		{Op: "switch", Rep: "og"},
		{Op: "wzoom", Window: "3 units"},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("pipeline with switch: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &g); err != nil {
		t.Fatal(err)
	}
	if g.Rep != "OG" {
		t.Errorf("after switch(og): rep = %s, want OG", g.Rep)
	}
}

func TestRequestValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body any
		code int
	}{
		{"unknown graph", "/v1/wzoom", WZoomRequest{Graph: "nope", Window: "3 units"}, http.StatusNotFound},
		{"bad window", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "banana"}, http.StatusBadRequest},
		{"bad quantifier", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units", VQuant: "at least2"}, http.StatusBadRequest},
		{"missing groupBy", "/v1/azoom", AZoomRequest{Graph: "fig1"}, http.StatusBadRequest},
		{"empty pipeline", "/v1/pipeline", PipelineRequest{Graph: "fig1"}, http.StatusBadRequest},
		{"unknown op", "/v1/pipeline", PipelineRequest{Graph: "fig1",
			Steps: []StepRequest{{Op: "teleport"}}}, http.StatusBadRequest},
		{"unknown rep", "/v1/pipeline", PipelineRequest{Graph: "fig1",
			Steps: []StepRequest{{Op: "switch", Rep: "vhs"}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := doJSON(t, s, "POST", tc.path, tc.body)
		if w.Code != tc.code {
			t.Errorf("%s: code = %d, want %d (%s)", tc.name, w.Code, tc.code, w.Body)
		}
		var e errorJSON
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, w.Body)
		}
	}
}

// doRaw drives the handler with a literal body.
func doRaw(s *Server, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return w
}

// A body is one JSON value: anything but whitespace after it is a 400,
// on the query endpoints and on /v1/append, where a second
// concatenated batch used to be dropped while the first was acked.
func TestTrailingBytesRejected(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	const batch = `{"graph":"fig1","deltas":[{"kind":"vertex","id":77,"start":1,"end":2}]}`
	cases := []struct{ path, body string }{
		{"/v1/wzoom", `{"graph":"fig1","window":"3 units"}{"graph":"nope"}`},
		{"/v1/wzoom", `{"graph":"fig1","window":"3 units"} x`},
		{"/v1/wzoom", `{"graph":"fig1","window":"3 units"}}`},
		{"/v1/azoom", `{"graph":"fig1","groupBy":"school"}[]`},
		{"/v1/pipeline", `{"graph":"fig1","steps":[{"op":"range","start":1,"end":5}]}0`},
		{"/v1/append", batch + batch},
	}
	for _, c := range cases {
		w := doRaw(s, c.path, c.body)
		var e errorJSON
		if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusBadRequest || err != nil || e.Kind != "bad-request" {
			t.Errorf("%s %s: %d %s, want 400 bad-request", c.path, c.body, w.Code, w.Body)
		}
	}
	// Nothing of the rejected batch reached the log.
	ctx := dataflow.NewContext(dataflow.WithParallelism(1))
	defer ctx.Close()
	if _, stats, err := storage.Load(ctx, dir, storage.LoadOptions{}); err != nil || stats.WALReplayed != 0 {
		t.Errorf("after the rejected append: replayed %d records (err %v), want 0", stats.WALReplayed, err)
	}
	// Trailing whitespace is not data.
	if w := doRaw(s, "/v1/wzoom", "{\"graph\":\"fig1\",\"window\":\"3 units\"}\n\t \r\n"); w.Code != http.StatusOK {
		t.Errorf("trailing whitespace: %d %s, want 200", w.Code, w.Body)
	}
	if w := doRaw(s, "/v1/append", batch+"\n"); w.Code != http.StatusOK {
		t.Errorf("append with trailing newline: %d %s, want 200", w.Code, w.Body)
	}
}

// A query body beyond maxQueryBody answers 413 with a typed kind
// instead of being read whole.
func TestQueryBodyBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := `{"graph":"fig1","window":"3 units","vquant":"` + strings.Repeat(" ", maxQueryBody) + `exists"}`
	w := doRaw(s, "/v1/wzoom", body)
	var e errorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusRequestEntityTooLarge || err != nil || e.Kind != "too-large" {
		t.Errorf("oversized body: %d %s, want 413 too-large", w.Code, w.Body)
	}
}

// An append body beyond maxAppendBody answers 413 like an oversized
// query and logs nothing: the next append is the log's first record.
func TestAppendBodyBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Drain()
	big := AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 77, Start: 1, End: 2, Props: map[string]string{"blob": strings.Repeat("x", maxAppendBody)}},
	}}
	w := doJSON(t, s, "POST", "/v1/append", big)
	var e errorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusRequestEntityTooLarge || err != nil || e.Kind != "too-large" {
		t.Fatalf("oversized append: %d %.200s, want 413 too-large", w.Code, w.Body)
	}
	resp, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{{Kind: "vertex", ID: 78, Start: 1, End: 2}}})
	if code != http.StatusOK || resp.FirstSeq != 1 {
		t.Fatalf("append after the 413: %d firstSeq=%d, want 200 and 1", code, resp.FirstSeq)
	}
}

// Two aZoom specs whose free-text fields rendered alike in the parent's
// unquoted canonical form ("azoom(by=school,type=x,type=y,count=)")
// shared one cache entry, so the second got the first one's body.
func TestCanonicalFieldsAreQuoted(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w1 := doJSON(t, s, "POST", "/v1/azoom", AZoomRequest{Graph: "fig1", GroupBy: "school,type=x", NewType: "y"})
	w2 := doJSON(t, s, "POST", "/v1/azoom", AZoomRequest{Graph: "fig1", GroupBy: "school", NewType: "x,type=y"})
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("codes: %d %d", w1.Code, w2.Code)
	}
	if got := w2.Header().Get("X-TGraph-Cache"); got != "miss" {
		t.Errorf("second spec answered %q, want miss: it is a different query", got)
	}
	if bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("different groupBy/newType answered one body")
	}
}

// Re-saving the graph directory from outside advances its stamp, which
// a resident hit never looks at: the request after the re-save still
// hits the old state. POST …/reload adopts the new stamp and flushes the
// graph's cache entries, and the next request recomputes.
func TestStampChangeInvalidates(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	req := WZoomRequest{Graph: "fig1", Window: "3 units"}

	before := computations()
	w1 := doJSON(t, s, "POST", "/v1/wzoom", req)
	if w1.Code != http.StatusOK || w1.Header().Get("X-TGraph-Cache") != "miss" {
		t.Fatalf("cold: %d %s", w1.Code, w1.Header().Get("X-TGraph-Cache"))
	}
	if s.Cache().Len() != 1 {
		t.Fatalf("entries = %d, want 1", s.Cache().Len())
	}

	// Identical content, but the manifest's save epoch advances.
	saveFigure1(t, dir)
	if w := doJSON(t, s, "POST", "/v1/wzoom", req); w.Code != http.StatusOK || w.Header().Get("X-TGraph-Cache") != "hit" {
		t.Fatalf("post-resave, before the reload: %d %q, want a hit on the old state", w.Code, w.Header().Get("X-TGraph-Cache"))
	}

	rl := doJSON(t, s, "POST", "/v1/graphs/fig1/reload", nil)
	var info GraphInfo
	if err := json.Unmarshal(rl.Body.Bytes(), &info); rl.Code != http.StatusOK || err != nil {
		t.Fatalf("reload: %d %v %s", rl.Code, err, rl.Body)
	}
	if stamp, err := storage.BaseStamp(dir); err != nil || info.Stamp != stamp {
		t.Errorf("reload answered stamp %q, want the re-saved directory's %q (%v)", info.Stamp, stamp, err)
	}
	w2 := doJSON(t, s, "POST", "/v1/wzoom", req)
	if w2.Code != http.StatusOK {
		t.Fatalf("post-reload: %d %s", w2.Code, w2.Body)
	}
	if got := w2.Header().Get("X-TGraph-Cache"); got != "miss" {
		t.Errorf("post-reload X-TGraph-Cache = %q, want miss (stamp changed)", got)
	}
	if d := computations() - before; d != 2 {
		t.Errorf("zoom executed %d times, want 2", d)
	}
	// The old entry was flushed, not stranded.
	if s.Cache().Len() != 1 {
		t.Errorf("entries = %d after invalidation, want 1", s.Cache().Len())
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("identical content re-saved: responses should still match")
	}
	if w := doJSON(t, s, "POST", "/v1/graphs/nope/reload", nil); w.Code != http.StatusNotFound {
		t.Errorf("reload of an unknown graph: %d, want 404", w.Code)
	}
}

func TestTimeoutReturns504(t *testing.T) {
	s, _ := newTestServer(t, Config{Timeout: time.Nanosecond})
	w := doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d %s, want 504", w.Code, w.Body)
	}
	var e errorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "deadline") {
		t.Errorf("error body = %s, want deadline error", w.Body)
	}
}

// Drain waits for in-flight requests and rejects new ones. The
// in-flight request is held open by parking its cache flight: the HTTP
// request joins it as a sharer and cannot finish until released.
func TestDrain(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	// Warm the handle so the request's key is predictable.
	if w := doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"}); w.Code != http.StatusOK {
		t.Fatalf("warmup: %d", w.Code)
	}

	stamp, err := storage.BaseStamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseStep(StepRequest{Op: "wzoom", Window: "5 units"})
	if err != nil {
		t.Fatal(err)
	}
	key := "fig1|full|v0|" + qcache.Key(stamp, chain{st}.canonical())

	// Park a flight on the key the request will use.
	started := make(chan struct{})
	release := make(chan struct{})
	go s.Cache().Do(key, func() (any, int64, error) {
		close(started)
		<-release
		return []byte(`{"held":true}`), 13, nil
	})
	<-started

	// The request joins the parked flight and blocks.
	reqDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		reqDone <- doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "5 units"})
	}()
	for obs.Default().Gauge("serve.inflight").Value() == 0 {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// Draining: new work is rejected, health reports down, and Drain
	// itself stays blocked on the in-flight request.
	deadline := time.After(2 * time.Second)
	for !s.draining.Load() {
		select {
		case <-deadline:
			t.Fatal("drain flag never set")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if w := doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: %d, want 503", w.Code)
	} else {
		var e errorJSON
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("drain 503 Content-Type = %q, want application/json", ct)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Kind != "draining" {
			t.Errorf("drain 503 body = %s (err %v), want kind draining", w.Body, err)
		}
	}
	if w := doJSON(t, s, "GET", "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", w.Code)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was in flight")
	default:
	}

	close(release)
	w := <-reqDone
	if w.Code != http.StatusOK {
		t.Errorf("held request: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-TGraph-Cache"); got != "shared" {
		t.Errorf("held request outcome = %q, want shared", got)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after the in-flight request finished")
	}
}

func TestGraphsHealthMetricsEndpoints(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	w := doJSON(t, s, "GET", "/v1/graphs", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("graphs: %d", w.Code)
	}
	var infos []GraphInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "fig1" || infos[0].Dir != dir || infos[0].Loaded {
		t.Errorf("graphs = %+v", infos)
	}

	// After a query the graph is loaded and stamped.
	doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"})
	w = doJSON(t, s, "GET", "/v1/graphs", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if !infos[0].Loaded || infos[0].Stamp == "" {
		t.Errorf("graphs after query = %+v", infos)
	}

	if w := doJSON(t, s, "GET", "/readyz", nil); w.Code != http.StatusOK {
		t.Errorf("readyz = %d %s", w.Code, w.Body)
	}
	w = doJSON(t, s, "GET", "/metricsz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz: %d", w.Code)
	}
	var snap map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Errorf("metricsz not JSON: %v", err)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no graphs: want error")
	}
	if _, err := New(Config{Graphs: []GraphConfig{{Name: "", Dir: "x"}}}); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := New(Config{Graphs: []GraphConfig{{Name: "a", Dir: "x"}, {Name: "a", Dir: "y"}}}); err == nil {
		t.Error("duplicate name: want error")
	}
	for _, mode := range []string{"", "each"} {
		if _, err := New(Config{Graphs: []GraphConfig{{Name: "a", Dir: "x"}}, WALSyncMode: mode}); err != nil {
			t.Errorf("WAL sync mode %q: %v", mode, err)
		}
	}
	if _, err := New(Config{Graphs: []GraphConfig{{Name: "a", Dir: "x"}}, WALSyncMode: "batched"}); err == nil {
		t.Error("WAL sync mode batched: want error")
	}
}

// Distinct queries occupy distinct entries and both become hits.
func TestDistinctQueriesCached(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	reqs := []WZoomRequest{
		{Graph: "fig1", Window: "2 units"},
		{Graph: "fig1", Window: "4 units"},
		{Graph: "fig1", Window: "2 units", VQuant: "all"},
	}
	for i, r := range reqs {
		if w := doJSON(t, s, "POST", "/v1/wzoom", r); w.Header().Get("X-TGraph-Cache") != "miss" {
			t.Errorf("cold request %d: outcome %q", i, w.Header().Get("X-TGraph-Cache"))
		}
	}
	if s.Cache().Len() != len(reqs) {
		t.Errorf("entries = %d, want %d", s.Cache().Len(), len(reqs))
	}
	for i, r := range reqs {
		if w := doJSON(t, s, "POST", "/v1/wzoom", r); w.Header().Get("X-TGraph-Cache") != "hit" {
			t.Errorf("warm request %d: outcome %q", i, w.Header().Get("X-TGraph-Cache"))
		}
	}
}
