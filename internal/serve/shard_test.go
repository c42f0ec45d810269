package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/temporal"
)

// shardFixture generates a deterministic graph large enough that every
// shard count under test gets non-trivial masters, mirrors and edges,
// with fragmented histories so window merges cross shard boundaries.
func shardFixture() ([]core.VertexTuple, []core.EdgeTuple) {
	seed := uint64(42)
	next := func(n uint64) uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) % n
	}
	var vs []core.VertexTuple
	var es []core.EdgeTuple
	const nv = 60
	for i := 0; i < nv; i++ {
		start := temporal.Time(next(40))
		frags := 1 + int(next(3))
		for f := 0; f < frags; f++ {
			length := temporal.Time(3 + next(20))
			vs = append(vs, core.VertexTuple{
				ID:       core.VertexID(i + 1),
				Interval: temporal.MustInterval(start, start+length),
				Props:    props.New("dept", fmt.Sprintf("d%d", i%5), "score", int64(next(50))),
			})
			start += length + temporal.Time(next(4))
		}
	}
	for e := 0; e < 150; e++ {
		src := core.VertexID(1 + next(nv))
		dst := core.VertexID(1 + next(nv))
		if src == dst {
			dst = src%nv + 1
		}
		start := temporal.Time(next(60))
		es = append(es, core.EdgeTuple{
			ID:       core.EdgeID(e + 1),
			Src:      src,
			Dst:      dst,
			Interval: temporal.MustInterval(start, start+temporal.Time(2+next(15))),
			Props:    props.New("kind", fmt.Sprintf("k%d", e%3)),
		})
	}
	return vs, es
}

// saveShardFixture writes the fixture flat into dir.
func saveShardFixture(t *testing.T, dir string) {
	t.Helper()
	vs, es := shardFixture()
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer ctx.Close()
	if err := storage.SaveGraph(dir, core.NewVE(ctx, vs, es), storage.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
}

// newServerOn serves dir as "g" with the given config.
func newServerOn(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.Graphs = []GraphConfig{{Name: "g", Dir: dir}}
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
	return s
}

// shardQueries is the request matrix the identity tests replay against
// flat and sharded servers: both single-operator endpoints, unit and
// change-based windows, and pipelines exercising the clip and gather
// paths.
func shardQueries(t *testing.T, s *Server) map[string]*bytes.Buffer {
	t.Helper()
	out := make(map[string]*bytes.Buffer)
	do := func(name, path string, body any) {
		w := doJSON(t, s, "POST", path, body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, w.Code, w.Body)
		}
		out[name] = w.Body
	}
	do("azoom", "/v1/azoom", AZoomRequest{Graph: "g", GroupBy: "dept", Count: "members"})
	do("wzoom-unit", "/v1/wzoom", WZoomRequest{Graph: "g", Window: "4 units", VQuant: "exists"})
	do("wzoom-changes", "/v1/wzoom", WZoomRequest{Graph: "g", Window: "2 changes", VQuant: "at least 0.5", VResolve: "last"})
	do("wzoom-dangling", "/v1/wzoom", WZoomRequest{Graph: "g", Window: "3 units", VQuant: "all", EQuant: "exists"})
	do("pipeline-range", "/v1/pipeline", PipelineRequest{Graph: "g", Steps: []StepRequest{
		{Op: "range", Start: 10, End: 40},
		{Op: "azoom", GroupBy: "dept"},
	}})
	do("pipeline-switch", "/v1/pipeline", PipelineRequest{Graph: "g", Steps: []StepRequest{
		{Op: "switch", Rep: "og"},
		{Op: "wzoom", Window: "5 units", VQuant: "exists"},
	}})
	return out
}

// Sharded responses are byte-identical to the unsharded server's, for
// every shard count under test, and carry the full-coverage
// X-TGraph-Shards header.
func TestShardedByteIdentity(t *testing.T) {
	dir := t.TempDir()
	saveShardFixture(t, dir)
	// Servers run sequentially (Drain releases the WAL), so they can all
	// serve the same directory.
	flat := newServerOn(t, dir, Config{})
	want := shardQueries(t, flat)
	flat.Drain()
	for _, n := range []int{2, 4} {
		sharded := newServerOn(t, dir, Config{Shards: n})
		got := shardQueries(t, sharded)
		for q, body := range want {
			if !bytes.Equal(body.Bytes(), got[q].Bytes()) {
				t.Errorf("n=%d: query %s: sharded body differs from unsharded", n, q)
			}
		}
		w := doJSON(t, sharded, "POST", "/v1/azoom", AZoomRequest{Graph: "g", GroupBy: "dept", Count: "members"})
		if h := w.Header().Get("X-TGraph-Shards"); h != fmt.Sprintf("%d/%d", n, n) {
			t.Errorf("n=%d: X-TGraph-Shards = %q, want %d/%d", n, h, n, n)
		}
		sharded.Drain()
	}
}

// shardAppendDeltas exercises every routing case: a state for an
// existing vertex, an edge whose endpoints live on (potentially)
// different shards, a brand-new vertex, and an edge touching it.
func shardAppendDeltas() []DeltaJSON {
	return []DeltaJSON{
		{Kind: "vertex", ID: 7, Start: 90, End: 110, Props: map[string]string{"dept": "d1", "score": "9"}},
		{Kind: "edge", ID: 900, Src: 7, Dst: 29, Start: 95, End: 105, Props: map[string]string{"kind": "k1"}},
		{Kind: "vertex", ID: 5000, Start: 100, End: 120, Props: map[string]string{"dept": "d0", "score": "3"}},
		{Kind: "edge", ID: 901, Src: 5000, Dst: 7, Start: 101, End: 115, Props: map[string]string{"kind": "k2"}},
	}
}

// Appends against an in-memory sharded server keep the sharded view
// byte-identical to a flat server fed the same deltas, and invalidate
// the sharded cache entries.
func TestShardedAppendParity(t *testing.T) {
	flatDir, shardDir := t.TempDir(), t.TempDir()
	saveShardFixture(t, flatDir)
	saveShardFixture(t, shardDir)
	flat := newServerOn(t, flatDir, Config{})
	defer flat.Drain()
	sharded := newServerOn(t, shardDir, Config{Shards: 3})
	defer sharded.Drain()

	azoom := AZoomRequest{Graph: "g", GroupBy: "dept", Count: "members"}
	// Warm both caches pre-append.
	doJSON(t, flat, "POST", "/v1/azoom", azoom)
	w := doJSON(t, sharded, "POST", "/v1/azoom", azoom)
	if w.Code != http.StatusOK {
		t.Fatalf("pre-append azoom: %d %s", w.Code, w.Body)
	}

	app := AppendRequest{Graph: "g", Deltas: shardAppendDeltas()}
	for _, s := range []*Server{flat, sharded} {
		if w := doJSON(t, s, "POST", "/v1/append", app); w.Code != http.StatusOK {
			t.Fatalf("append: %d %s", w.Code, w.Body)
		}
	}

	wf := doJSON(t, flat, "POST", "/v1/azoom", azoom)
	ws := doJSON(t, sharded, "POST", "/v1/azoom", azoom)
	if wf.Code != http.StatusOK || ws.Code != http.StatusOK {
		t.Fatalf("post-append codes: %d %d", wf.Code, ws.Code)
	}
	if got := ws.Header().Get("X-TGraph-Cache"); got != "miss" {
		t.Errorf("post-append sharded X-TGraph-Cache = %q, want miss (invalidated)", got)
	}
	if !bytes.Equal(wf.Body.Bytes(), ws.Body.Bytes()) {
		t.Error("post-append sharded body differs from flat")
	}
	wz := WZoomRequest{Graph: "g", Window: "4 units", VQuant: "exists"}
	wfz := doJSON(t, flat, "POST", "/v1/wzoom", wz)
	wsz := doJSON(t, sharded, "POST", "/v1/wzoom", wz)
	if !bytes.Equal(wfz.Body.Bytes(), wsz.Body.Bytes()) {
		t.Error("post-append sharded wzoom differs from flat")
	}
}

// A published sharded state never changes: after an append, the
// coordinator a reader captured before it still answers every query
// byte-identically to a cold compute over the captured graph, not with
// the appended records.
func TestPublishedShardStateIsImmutable(t *testing.T) {
	dir := t.TempDir()
	saveShardFixture(t, dir)
	s := newServerOn(t, dir, Config{Shards: 3})
	defer s.Drain()
	// Load the graph, then capture the state a reader would hold.
	if w := doJSON(t, s, "POST", "/v1/azoom", AZoomRequest{Graph: "g", GroupBy: "dept", Count: "members"}); w.Code != http.StatusOK {
		t.Fatalf("load: %d %s", w.Code, w.Body)
	}
	h := s.graphs["g"]
	captured := h.state.Load()
	if w := doJSON(t, s, "POST", "/v1/append", AppendRequest{Graph: "g", Deltas: shardAppendDeltas()}); w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body)
	}
	flat := *captured
	flat.coord = nil
	for _, q := range []struct {
		ep   string
		body any
	}{
		{"azoom", AZoomRequest{Graph: "g", GroupBy: "dept", Count: "members"}},
		{"wzoom", WZoomRequest{Graph: "g", Window: "4 units", VQuant: "exists"}},
		{"pipeline", PipelineRequest{Graph: "g", Steps: []StepRequest{{Op: "range", Start: 80, End: 130}, {Op: "azoom", GroupBy: "dept"}}}},
	} {
		body, err := json.Marshal(q.body)
		if err != nil {
			t.Fatal(err)
		}
		_, steps, err := parseBody(q.ep, body)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		got, _, err := s.compute(ctx, ctx, h, captured, steps, steps.canonical())
		if err != nil {
			t.Fatalf("%s: captured coordinator: %v", body, err)
		}
		want, _, err := s.compute(ctx, ctx, h, &flat, steps, steps.canonical())
		if err != nil {
			t.Fatalf("%s: captured graph: %v", body, err)
		}
		if !bytes.Equal(got.([]byte), want.([]byte)) {
			t.Errorf("%s: the captured coordinator answers with the append:\n got %s\nwant %s", body, got, want)
		}
	}
}

// Appends against a sharded server are durable in the directory's WAL
// and survive a restart: a new sharded server over the same directory
// replays them, re-splits, and answers byte-identically.
func TestShardedAppendDurability(t *testing.T) {
	dir := t.TempDir()
	saveShardFixture(t, dir)
	azoom := AZoomRequest{Graph: "g", GroupBy: "dept", Count: "members"}

	s1 := newServerOn(t, dir, Config{Shards: 3})
	w0 := doJSON(t, s1, "POST", "/v1/azoom", azoom)
	if w := doJSON(t, s1, "POST", "/v1/append",
		AppendRequest{Graph: "g", Deltas: shardAppendDeltas()}); w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body)
	}
	w1 := doJSON(t, s1, "POST", "/v1/azoom", azoom)
	if w1.Code != http.StatusOK {
		t.Fatalf("post-append azoom: %d %s", w1.Code, w1.Body)
	}
	if bytes.Equal(w0.Body.Bytes(), w1.Body.Bytes()) {
		t.Fatal("append did not change the azoom body; the restart check below would prove nothing")
	}
	s1.Drain()

	s2 := newServerOn(t, dir, Config{Shards: 3})
	defer s2.Drain()
	w2 := doJSON(t, s2, "POST", "/v1/azoom", azoom)
	if w2.Code != http.StatusOK {
		t.Fatalf("replayed azoom: %d %s", w2.Code, w2.Body)
	}
	if h := w2.Header().Get("X-TGraph-Shards"); h != "3/3" {
		t.Errorf("restarted X-TGraph-Shards = %q, want 3/3", h)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("restarted server's body differs: WAL replay lost appends")
	}
}

// legFaultOnce returns a FaultHook failing exactly one shard leg.
func legFaultOnce(err error) func(string) error {
	var mu sync.Mutex
	fired := false
	return func(site string) error {
		if site != "shard.leg" {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if fired {
			return nil
		}
		fired = true
		return err
	}
}

// A failed shard fails the request with the typed scatter error — there
// is no partial merge — and the next request recovers full coverage.
func TestShardedPartialDegraded(t *testing.T) {
	dir := t.TempDir()
	saveShardFixture(t, dir)
	boom := errors.New("injected shard fault")
	azoom := AZoomRequest{Graph: "g", GroupBy: "dept", Count: "members"}

	t.Run("fail-fast", func(t *testing.T) {
		s := newServerOn(t, dir, Config{Shards: 4, FaultHook: legFaultOnce(boom)})
		defer s.Drain()
		w := doJSON(t, s, "POST", "/v1/azoom", azoom)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("fail-fast request: %d %s, want 500", w.Code, w.Body)
		}
		var body errorJSON
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Dataflow == nil || body.Dataflow.Stage != "shard.scatter" {
			t.Errorf("error detail = %+v, want dataflow stage shard.scatter", body.Dataflow)
		}
		w2 := doJSON(t, s, "POST", "/v1/azoom", azoom)
		if w2.Code != http.StatusOK || w2.Header().Get("X-TGraph-Shards") != "4/4" {
			t.Errorf("recovery: %d shards=%q, want 200 4/4", w2.Code, w2.Header().Get("X-TGraph-Shards"))
		}
	})
}

// A sharded handle whose coordinator is dropped — as closeLogs drops
// it on Drain — answers from the flat graph, and an entry the
// coordinator computed is an ordinary body to it: the requery is a 200
// hit with the same bytes.
func TestDroppedCoordinatorServesShardedEntry(t *testing.T) {
	dir := t.TempDir()
	saveShardFixture(t, dir)
	s := newServerOn(t, dir, Config{Shards: 2})
	defer s.Drain()
	req := PipelineRequest{Graph: "g", Steps: []StepRequest{
		{Op: "range", Start: 10, End: 40},
		{Op: "azoom", GroupBy: "dept"},
	}}
	w1 := doJSON(t, s, "POST", "/v1/pipeline", req)
	if w1.Code != http.StatusOK || w1.Header().Get("X-TGraph-Shards") != "2/2" {
		t.Fatalf("sharded: %d %q %s", w1.Code, w1.Header().Get("X-TGraph-Shards"), w1.Body)
	}
	h := s.graphs["g"]
	h.mu.Lock()
	st := h.state.Load()
	st.coord.Close()
	ns := *st
	ns.coord = nil
	h.state.Store(&ns)
	h.mu.Unlock()

	w2 := doJSON(t, s, "POST", "/v1/pipeline", req)
	if w2.Code != http.StatusOK || w2.Header().Get("X-TGraph-Cache") != "hit" {
		t.Fatalf("after dropping the coordinator: %d %q %s", w2.Code, w2.Header().Get("X-TGraph-Cache"), w2.Body)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Errorf("body changed:\n got %s\nwant %s", w2.Body, w1.Body)
	}
}
