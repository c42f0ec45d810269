package serve

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/storage"
)

// snapshotSpecs covers the invalidation paths: a view-patched
// whole-graph wZoom, a whole-graph aZoom and range-tagged pipelines, one
// of them answered by clipping that aZoom's whole-graph body.
var snapshotSpecs = []struct {
	path string
	body any
}{
	{"/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"}},
	{"/v1/azoom", AZoomRequest{Graph: "fig1", GroupBy: "school", Count: "n"}},
	{"/v1/pipeline", PipelineRequest{Graph: "fig1", Steps: []StepRequest{
		{Op: "range", Start: 1, End: 6},
		{Op: "wzoom", Window: "2 units", VQuant: "all"},
	}}},
	{"/v1/pipeline", PipelineRequest{Graph: "fig1", Steps: []StepRequest{
		{Op: "range", Start: 2, End: 6},
		{Op: "azoom", GroupBy: "school", Count: "n"},
	}}},
}

// snapshotDeltas are the appends, one batch each; every one changes
// every spec's answer.
func snapshotDeltas() [][]DeltaJSON {
	var out [][]DeltaJSON
	for j := 0; j < 6; j++ {
		school := []string{"MIT", "CMU", "ETH"}[j%3]
		start := int64(1 + j%4)
		out = append(out, []DeltaJSON{
			{Kind: "vertex", ID: int64(10 + j), Start: start, End: start + 3, Props: map[string]string{"type": "person", "school": school}},
			{Kind: "edge", ID: int64(20 + j), Src: int64(10 + j), Dst: 1, Start: start, End: start + 2, Props: map[string]string{"type": "co-author"}},
		})
	}
	return out
}

// coldBodies answers every spec cold after the first n batches: the
// batches are appended to a fresh copy of Figure 1, and a second server
// loads that directory from disk (replaying the log) with no cache.
func coldBodies(t *testing.T, batches [][]DeltaJSON, n int) [][]byte {
	t.Helper()
	dir := t.TempDir()
	saveFigure1(t, dir)
	cfg := Config{Graphs: []GraphConfig{{Name: "fig1", Dir: dir}}, Parallelism: 2, CacheBytes: -1}
	if n > 0 {
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var all []DeltaJSON
		for _, b := range batches[:n] {
			all = append(all, b...)
		}
		if _, code := appendJSON(t, w, AppendRequest{Graph: "fig1", Deltas: all}); code != http.StatusOK {
			t.Fatalf("reference append: %d", code)
		}
		w.Drain()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Drain()
	out := make([][]byte, len(snapshotSpecs))
	for i, sp := range snapshotSpecs {
		w := doJSON(t, r, "POST", sp.path, sp.body)
		if w.Code != http.StatusOK || w.Header().Get("X-TGraph-Cache") != "miss" {
			t.Fatalf("reference %s: %d %q", sp.path, w.Code, w.Header().Get("X-TGraph-Cache"))
		}
		out[i] = w.Body.Bytes()
	}
	return out
}

// TestSnapshotReadsUnderWrites runs readers that mostly hit while the
// test appends, the server compacts inline, and the directory is
// re-saved from outside and reloaded. Every 200 a reader sees must be some acked
// version's cold body; the writer's own read right after each ack must
// be exactly that version's (an acked append is visible to every read
// issued after the ack); and at quiescence live == cold.
func TestSnapshotReadsUnderWrites(t *testing.T) {
	batches := snapshotDeltas()
	cold := make([][][]byte, len(batches)+1)
	for n := range cold {
		cold[n] = coldBodies(t, batches, n)
	}
	for n := 1; n < len(cold); n++ {
		for i := range snapshotSpecs {
			if bytes.Equal(cold[n][i], cold[n-1][i]) {
				t.Fatalf("batch %d does not change spec %d; the test could not tell versions apart", n, i)
			}
		}
	}

	dir := t.TempDir()
	saveFigure1(t, dir)
	s, err := New(Config{Graphs: []GraphConfig{{Name: "fig1", Dir: dir}}, Parallelism: 2, CacheBytes: 1 << 20, CompactAfter: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	var mu sync.Mutex
	seen := make([][][]byte, len(snapshotSpecs))
	read := func(i int) (int, []byte) {
		w := doJSON(t, s, "POST", snapshotSpecs[i].path, snapshotSpecs[i].body)
		return w.Code, w.Body.Bytes()
	}
	for i := range snapshotSpecs {
		if code, body := read(i); code != http.StatusOK || !bytes.Equal(body, cold[0][i]) {
			t.Fatalf("warm-up %d: %d, equal to cold %v", i, code, bytes.Equal(body, cold[0][i]))
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n % len(snapshotSpecs)
				code, body := read(i)
				if code != http.StatusOK {
					t.Errorf("reader: spec %d answered %d %s", i, code, body)
					return
				}
				mu.Lock()
				seen[i] = append(seen[i], body)
				mu.Unlock()
			}
		}(r)
	}

	compactions := obs.Default().Counter("serve.compactions").Value()
	var lastSeq uint64
	for j, b := range batches {
		resp, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: b})
		if code != http.StatusOK {
			t.Fatalf("append %d: %d", j, code)
		}
		lastSeq = resp.LastSeq
		for i := range snapshotSpecs {
			if code, body := read(i); code != http.StatusOK || !bytes.Equal(body, cold[j+1][i]) {
				t.Errorf("read after ack %d, spec %d: %d, equal to that version's cold body %v", j, i, code, bytes.Equal(body, cold[j+1][i]))
			}
		}
		if j == 1 || j == 4 {
			resave(t, dir, lastSeq)
			if err := s.Reload(context.Background(), "fig1"); err != nil {
				t.Fatalf("reload after re-save %d: %v", j, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if d := obs.Default().Counter("serve.compactions").Value() - compactions; d != 1 {
		t.Errorf("serve.compactions advanced by %d, want 1 inline compaction", d)
	}

	for i := range snapshotSpecs {
		for _, body := range seen[i] {
			ok := false
			for n := range cold {
				if bytes.Equal(body, cold[n][i]) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("spec %d: a reader saw a body that is no acked version's cold body:\n%s", i, body)
			}
		}
		if code, body := read(i); code != http.StatusOK || !bytes.Equal(body, cold[len(batches)][i]) {
			t.Errorf("quiescent spec %d: %d, live == cold %v", i, code, bytes.Equal(body, cold[len(batches)][i]))
		}
	}
}

// resave commits the directory's current contents as a new epoch from
// outside the server, subsuming the log through walSeq — what an
// operator's offline re-save does: same data, new manifest.
func resave(t *testing.T, dir string, walSeq uint64) {
	t.Helper()
	ctx := dataflow.NewContext(dataflow.WithParallelism(1))
	defer ctx.Close()
	g, _, err := storage.Load(ctx, dir, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.SaveGraph(dir, g, storage.SaveOptions{WALSeq: walSeq}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionPublishesItsManifest: an inline compaction publishes
// the stamp it committed, so a reload right after it finds the stamp
// unchanged and keeps the graph instead of reloading it.
func TestCompactionPublishesItsManifest(t *testing.T) {
	s, dir := newTestServer(t, Config{CompactAfter: 1})
	if w := doJSON(t, s, "POST", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units"}); w.Code != http.StatusOK {
		t.Fatalf("warm: %d", w.Code)
	}
	before := s.graphs["fig1"].state.Load().stamp
	if _, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{{Kind: "vertex", ID: 60, Start: 2, End: 4}}}); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	h := s.graphs["fig1"]
	st := h.state.Load()
	stamp, err := storage.BaseStamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.stamp != stamp || st.stamp == before {
		t.Fatalf("published stamp %s differs from the compacted directory's %s (was %s)", st.stamp, stamp, before)
	}
	if err := s.Reload(context.Background(), "fig1"); err != nil {
		t.Fatalf("reload after an inline compaction: %v", err)
	}
	if h.state.Load().graph != st.graph {
		t.Error("the reload after an inline compaction reloaded the graph")
	}
}
