package serve

// Live-ingestion tests: append durability (an acked append is visible
// to queries and survives a simulated kill -9 reopen), surgical cache
// invalidation (results over untouched windows stay resident), refusal
// semantics (degraded graphs, dead WAL), and inline compaction.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

func appendJSON(t *testing.T, s *Server, req AppendRequest) (AppendResponse, int) {
	t.Helper()
	w := doJSON(t, s, "POST", "/v1/append", req)
	var resp AppendResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("append response: %v (%s)", err, w.Body)
		}
	}
	return resp, w.Code
}

func queryVertexIDs(t *testing.T, s *Server, steps []StepRequest) map[int64]bool {
	t.Helper()
	w := doJSON(t, s, "POST", "/v1/pipeline", PipelineRequest{Graph: "fig1", Steps: steps})
	if w.Code != http.StatusOK {
		t.Fatalf("pipeline: %d %s", w.Code, w.Body)
	}
	var g GraphJSON
	if err := json.Unmarshal(w.Body.Bytes(), &g); err != nil {
		t.Fatal(err)
	}
	ids := make(map[int64]bool)
	for _, v := range g.Vertices {
		ids[v.ID] = true
	}
	return ids
}

// TestAppendVisibleAndDurable: an acked append is immediately visible
// to queries without a reload, and a fresh storage.Load of the
// directory — the moral equivalent of restarting after kill -9 — sees
// the records too, because the 200 was only sent after fsync.
func TestAppendVisibleAndDurable(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	full := []StepRequest{{Op: "range", Start: 0, End: 1000}}
	if ids := queryVertexIDs(t, s, full); ids[42] {
		t.Fatal("vertex 42 present before append")
	}
	resp, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 42, Start: 10, End: 20, Props: map[string]string{"type": "person"}},
		{Kind: "edge", ID: 7, Src: 42, Dst: 1, Start: 12, End: 18},
	}})
	if code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	if resp.FirstSeq != 1 || resp.LastSeq != 2 {
		t.Errorf("seq range = [%d, %d], want [1, 2]", resp.FirstSeq, resp.LastSeq)
	}
	if ids := queryVertexIDs(t, s, full); !ids[42] {
		t.Error("appended vertex not visible to queries")
	}

	// Reopen from disk without closing the server's log: only what was
	// durable at ack time can be there.
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	g, stats, err := storage.Load(ctx, dir, storage.LoadOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if stats.WALReplayed != 2 {
		t.Errorf("reopen replayed %d records, want 2", stats.WALReplayed)
	}
	found := false
	for _, v := range g.VertexStates() {
		if v.ID == 42 {
			found = true
		}
	}
	if !found {
		t.Error("acked append missing after reopen — durability violated")
	}
}

// TestAppendSurgicalInvalidation warms disjoint range queries, appends
// into one window, and checks the others stay resident: the hit-rate
// retention the tag index buys over flush-the-graph invalidation.
func TestAppendSurgicalInvalidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const windows = 10
	rangeSteps := func(i int) []StepRequest {
		return []StepRequest{{Op: "range", Start: int64(i * 10), End: int64(i*10 + 10)}}
	}
	for i := 0; i < windows; i++ {
		queryVertexIDs(t, s, rangeSteps(i)) // cold
	}
	// A full-graph (untagged) query, which every append must invalidate.
	fullReq := WZoomRequest{Graph: "fig1", Window: "3 units"}
	if w := doJSON(t, s, "POST", "/v1/wzoom", fullReq); w.Code != http.StatusOK {
		t.Fatalf("warm full query: %d", w.Code)
	}

	resp, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 90, Start: 95, End: 99},
	}})
	if code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	// Exactly two entries die: the r90:100 window and the full wzoom.
	if resp.Invalidated != 2 {
		t.Errorf("invalidated = %d, want 2", resp.Invalidated)
	}

	before := computations()
	hits := 0
	for i := 0; i < windows; i++ {
		w := doJSON(t, s, "POST", "/v1/pipeline", PipelineRequest{Graph: "fig1", Steps: rangeSteps(i)})
		if w.Code != http.StatusOK {
			t.Fatalf("requery %d: %d", i, w.Code)
		}
		if w.Header().Get("X-TGraph-Cache") == "hit" {
			hits++
		}
	}
	// The ISSUE's acceptance bar: > 90% retention. 9 of 10 windows must
	// still hit; only the touched one recomputes.
	if hits != windows-1 {
		t.Errorf("retained %d/%d cached windows, want %d", hits, windows, windows-1)
	}
	if got := computations() - before; got != 1 {
		t.Errorf("recomputed %d windows, want 1", got)
	}
	// And the recomputed window must see the new vertex.
	if ids := queryVertexIDs(t, s, rangeSteps(9)); !ids[90] {
		t.Error("touched window does not see the appended vertex")
	}
	// The full query was invalidated and then patched in place by view
	// maintenance: the requery serves the refreshed body without a cold
	// recompute.
	if resp.Patched != 1 {
		t.Errorf("patched = %d, want 1", resp.Patched)
	}
	if w := doJSON(t, s, "POST", "/v1/wzoom", fullReq); w.Header().Get("X-TGraph-Cache") != "patched" {
		t.Errorf("full query after append: cache %q, want patched", w.Header().Get("X-TGraph-Cache"))
	}
}

// TestWZoomBeforeRangeIsNotStale: unit windows start at the graph's
// lifetime start and the last one is clamped at its end, so a range
// step after a wZoom does not bound what the chain depends on. An
// append outside [7,9) moves the clamped last window over it and must
// invalidate the cached body, which then equals a cold server's.
func TestWZoomBeforeRangeIsNotStale(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	req := PipelineRequest{Graph: "fig1", Steps: []StepRequest{
		{Op: "wzoom", Window: "3 units", VQuant: "all"},
		{Op: "range", Start: 7, End: 9},
	}}
	if w := doJSON(t, s, "POST", "/v1/pipeline", req); w.Code != http.StatusOK {
		t.Fatalf("warm: %d %s", w.Code, w.Body)
	}
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 42, Start: 9, End: 11, Props: map[string]string{"type": "person"}},
	}}); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	w := doJSON(t, s, "POST", "/v1/pipeline", req)
	if got := w.Header().Get("X-TGraph-Cache"); got == "hit" {
		t.Errorf("post-append X-TGraph-Cache = hit: the cached body predates the append")
	}
	cold, err := New(Config{Graphs: []GraphConfig{{Name: "fig1", Dir: dir}}, Parallelism: 2, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := doJSON(t, cold, "POST", "/v1/pipeline", req)
	if w.Body.String() != want.Body.String() {
		t.Errorf("post-append body\n%s\nwant the cold server's\n%s", w.Body, want.Body)
	}
}

func TestAppendValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []AppendRequest{
		{Graph: "fig1"}, // no deltas
		{Graph: "fig1", Deltas: []DeltaJSON{{Kind: "vertex", ID: 1, Start: 5, End: 5}}},         // empty interval
		{Graph: "fig1", Deltas: []DeltaJSON{{Kind: "vertex", ID: 1, Src: 2, Start: 1, End: 2}}}, // vertex with src
		{Graph: "fig1", Deltas: []DeltaJSON{{Kind: "blob", ID: 1, Start: 1, End: 2}}},           // bad kind
	}
	for i, req := range cases {
		if _, code := appendJSON(t, s, req); code != http.StatusBadRequest {
			t.Errorf("case %d: %d, want 400", i, code)
		}
	}
	if _, code := appendJSON(t, s, AppendRequest{Graph: "nope", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 1, Start: 1, End: 2},
	}}); code != http.StatusNotFound {
		t.Errorf("unknown graph: want 404")
	}
}

// TestAppendRefusedWhileDegraded: a graph serving a stale view (its
// last reload failed) must not accept writes until a reload succeeds.
func TestAppendRefusedWhileDegraded(t *testing.T) {
	failing := false
	s, _ := newTestServer(t, Config{
		FaultHook: func(site string) error {
			if site == "serve.reload" && failing {
				return errors.New("injected reload failure")
			}
			return nil
		},
	})
	delta := []DeltaJSON{{Kind: "vertex", ID: 5, Start: 1, End: 2}}
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: delta}); code != http.StatusOK {
		t.Fatalf("healthy append: %d", code)
	}
	failing = true
	if err := s.Reload(context.Background(), "fig1"); err == nil {
		t.Fatal("reload under an injected failure succeeded")
	}
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: delta}); code != http.StatusServiceUnavailable {
		t.Errorf("degraded append: %d, want 503", code)
	}
	// Queries still answer (degraded) — only writes are refused.
	w := doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"})
	if w.Code != http.StatusOK || w.Header().Get("X-TGraph-Degraded") != "stale-graph" {
		t.Errorf("degraded query: %d %q, want 200 stale-graph", w.Code, w.Header().Get("X-TGraph-Degraded"))
	}
	failing = false
	if err := s.Reload(context.Background(), "fig1"); err != nil {
		t.Fatalf("reload after the failure cleared: %v", err)
	}
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: delta}); code != http.StatusOK {
		t.Errorf("append after a successful reload: %d, want 200", code)
	}
}

// TestAppendWALCrash: an injected WAL crash fails the append without
// acking, leaves the log dead (as a real crash would leave the process
// dead), and loses nothing that was previously acked.
func TestAppendWALCrash(t *testing.T) {
	armed := false
	s, dir := newTestServer(t, Config{
		WALFaultHook: func(site string) error {
			if armed && site == "storage.wal.sync" {
				return errors.New("injected crash")
			}
			return nil
		},
	})
	delta := func(id int64) []DeltaJSON {
		return []DeltaJSON{{Kind: "vertex", ID: id, Start: 1, End: 2}}
	}
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: delta(1001)}); code != http.StatusOK {
		t.Fatalf("pre-crash append: %d", code)
	}
	armed = true
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: delta(1002)}); code != http.StatusServiceUnavailable {
		t.Errorf("crashed append: %d, want 503", code)
	}
	// The log is dead; further appends keep failing rather than lying.
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: delta(1003)}); code == http.StatusOK {
		t.Error("append acked on a dead log")
	}
	// Reopen: the acked record is there; the crashed ones may or may not
	// be (they were never acked) — but nothing acked is missing.
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	g, _, err := storage.Load(ctx, dir, storage.LoadOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	found := false
	for _, v := range g.VertexStates() {
		if v.ID == 1001 {
			found = true
		}
	}
	if !found {
		t.Error("acked pre-crash append lost")
	}
}

// TestCompactionDefersBlockFrees: an inline compaction hands the files
// it replaces or deletes to the graph's reclaimer instead of freeing
// them inside the append, and the directory keeps only live names. The
// first compaction holds six: the two flat files, the MANIFEST, the two
// nested files it removes and the retired log segment; later ones have
// no nested files left to remove and hold four.
func TestCompactionDefersBlockFrees(t *testing.T) {
	s, dir := newTestServer(t, Config{CompactAfter: 2})
	defer s.Drain()
	held := obs.Default().Counter("storage.reclaim_held")
	for i, want := range []int64{6, 4} {
		before := held.Value()
		id := int64(50 + 2*i)
		if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
			{Kind: "vertex", ID: id, Start: 10, End: 20},
			{Kind: "vertex", ID: id + 1, Start: 20, End: 30},
		}}); code != http.StatusOK {
			t.Fatalf("append: %d", code)
		}
		if got := held.Value() - before; got != want {
			t.Errorf("compaction %d: storage.reclaim_held advanced by %d, want %d", i+1, got, want)
		}
		rep, err := storage.VerifyDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean {
			t.Errorf("directory after compaction %d: %+v", i+1, rep)
		}
	}
}

// TestInlineCompactionStoresFlatOnly: an inline compaction writes only
// the flat layout the server loads. The directory then holds the
// MANIFEST, the two flat files and WAL segments, and the MANIFEST lists
// two files. An offline compaction with default options writes the
// nested layout again, and an OG load of it equals the served graph.
func TestInlineCompactionStoresFlatOnly(t *testing.T) {
	s, dir := newTestServer(t, Config{CompactAfter: 2})
	defer s.Drain()
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 50, Start: 10, End: 20},
		{Kind: "vertex", ID: 51, Start: 20, End: 30},
	}}); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case name == storage.ManifestFile, name == storage.FlatVerticesFile, name == storage.FlatEdgesFile, wal.IsSegmentName(name):
		default:
			t.Errorf("%s left in the directory after an inline compaction", name)
		}
	}
	man, err := storage.ReadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(man.Entries) != 2 {
		t.Errorf("manifest lists %d files, want the 2 flat ones", len(man.Entries))
	}

	served := s.graphs["fig1"].state.Load().graph
	s.Drain() // releases the log the offline compaction opens
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer ctx.Close()
	if _, err := storage.Compact(ctx, dir, nil, storage.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	og, _, err := storage.Load(ctx, dir, storage.LoadOptions{Rep: core.RepOG})
	if err != nil {
		t.Fatalf("OG load after an offline compaction: %v", err)
	}
	if got, want := coalesceEncode(og), coalesceEncode(core.ToOG(served)); !bytes.Equal(got, want) {
		t.Errorf("OG load after an offline compaction:\n%s\nwant ToOG of the served graph:\n%s", got, want)
	}
}

// TestAppendTriggersCompaction: after CompactAfter records the server
// folds the WAL into a new epoch inline — the base stamp advances, the
// WAL tail is subsumed, and queries keep answering the same data.
func TestAppendTriggersCompaction(t *testing.T) {
	s, dir := newTestServer(t, Config{CompactAfter: 2})
	before := obs.Default().Counter("serve.compactions").Value()
	stampBefore, err := storage.BaseStamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 50, Start: 10, End: 20},
		{Kind: "vertex", ID: 51, Start: 20, End: 30},
	}}); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	if got := obs.Default().Counter("serve.compactions").Value() - before; got != 1 {
		t.Errorf("serve.compactions advanced by %d, want 1", got)
	}
	stampAfter, err := storage.BaseStamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stampAfter == stampBefore {
		t.Error("base stamp unchanged after compaction")
	}
	// The fold subsumed the tail: a fresh load replays nothing.
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	_, stats, err := storage.Load(ctx, dir, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALReplayed != 0 {
		t.Errorf("replayed %d records after compaction, want 0", stats.WALReplayed)
	}
	// Queries still see the folded records, without a reload.
	if ids := queryVertexIDs(t, s, []StepRequest{{Op: "range", Start: 0, End: 1000}}); !ids[50] || !ids[51] {
		t.Error("folded vertices missing from post-compaction query")
	}
	// And the next append keeps working against the rotated log.
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 52, Start: 30, End: 40},
	}}); code != http.StatusOK {
		t.Fatalf("post-compaction append: %d", code)
	}
}

// FuzzAppendBatch drives /v1/append with arbitrary bytes, split at NUL
// bytes into up to three requests against one fresh copy of Figure 1.
// Every answer is 2xx or 4xx and no handler panics; after the server is
// drained (closing its log) and the directory reopened, the graph holds
// Figure 1, every acked batch and nothing else.
func FuzzAppendBatch(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"fig1","deltas":[{"kind":"vertex","id":42,"start":10,"end":20,"props":{"type":"person","n":"3"}}]}`,
		`{"graph":"fig1","deltas":[{"kind":"edge","id":7,"src":42,"dst":1,"start":12,"end":18}]}` + "\x00" +
			`{"graph":"fig1","deltas":[{"kind":"vertex","id":1,"start":5,"end":5}]}` + "\x00" +
			`{"graph":"fig1","deltas":[{"kind":"VERTEX","id":-3,"start":-9,"end":9223372036854775807,"props":{"x":"1.5"}}]}`,
		`{"graph":"nope","deltas":[{"kind":"vertex","id":1,"start":1,"end":2}]}`,
		`{"graph":"fig1","deltas":[]}`,
		`{"graph":"fig1","deltas":[{"kind":"vertex","id":1,"start":1,"end":2,"props":{"":"x"}}]}`,
		`{"graph":"fig1","deltas":[{"kind":"vertex","id":1,"start":1,"end":2}]} {}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	template := f.TempDir()
	saveFigure1(f, template)
	base := stateLines(loadDir(f, template))
	panics := obs.Default().Counter("serve.panics_recovered")
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(template)); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Graphs: []GraphConfig{{Name: "fig1", Dir: dir}}, Parallelism: 2, CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		want := append([]string(nil), base...)
		for _, body := range bytes.SplitN(data, []byte{0}, 3) {
			before := panics.Value()
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/append", bytes.NewReader(body)))
			if panics.Value() != before {
				t.Fatalf("handler panicked: %s", w.Body)
			}
			if w.Code >= 500 || w.Code < 200 {
				t.Fatalf("append answered %d: %s", w.Code, w.Body)
			}
			if w.Code >= 300 {
				continue
			}
			var req AppendRequest
			if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
				t.Fatalf("acked body does not decode: %v", err)
			}
			ds, err := parseDeltas(req.Deltas)
			if err != nil {
				t.Fatalf("acked body does not parse: %v", err)
			}
			for _, d := range ds {
				want = append(want, deltaLine(d))
			}
		}
		s.Drain()
		got := stateLines(loadDir(t, dir))
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("reopened graph holds\n%s\nwant Figure 1 plus the acked batches\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// loadDir loads a stored graph the way a restarting server does.
func loadDir(t testing.TB, dir string) core.TGraph {
	t.Helper()
	g, _, err := storage.Load(dataflow.NewContext(dataflow.WithParallelism(2)), dir, storage.LoadOptions{})
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	return g
}

// stateLines renders every state of g, one line each, sorted.
func stateLines(g core.TGraph) []string {
	var lines []string
	for _, v := range g.VertexStates() {
		lines = append(lines, fmt.Sprintf("v %d %v %s", v.ID, v.Interval, v.Props))
	}
	for _, e := range g.EdgeStates() {
		lines = append(lines, fmt.Sprintf("e %d %d %d %v %s", e.ID, e.Src, e.Dst, e.Interval, e.Props))
	}
	slices.Sort(lines)
	return lines
}

// deltaLine renders an appended delta as stateLines renders its state.
func deltaLine(d wal.Delta) string {
	if d.Kind == wal.KindVertex {
		return fmt.Sprintf("v %d %v %s", d.ID, d.Interval, d.Props)
	}
	return fmt.Sprintf("e %d %d %d %v %s", d.ID, d.Src, d.Dst, d.Interval, d.Props)
}
