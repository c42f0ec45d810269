package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/qcache"
)

// TestAppendPatchesViews exercises the incremental-maintenance patch
// path end to end: warm an eligible chain, append, and check the
// requery serves a patched body that is byte-identical to a cold
// recompute of the post-append graph.
func TestAppendPatchesViews(t *testing.T) {
	queries := []struct {
		name string
		path string
		body any
	}{
		{"azoom", "/v1/azoom", AZoomRequest{Graph: "fig1", GroupBy: "school", Count: "n"}},
		{"wzoom", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units", VQuant: "most", EQuant: "exists", VResolve: "last", EResolve: "last"}},
	}
	for _, q := range queries {
		t.Run("ve/"+q.name, func(t *testing.T) {
			dir := t.TempDir()
			saveFigure1(t, dir)
			s, err := New(Config{
				Graphs:      []GraphConfig{{Name: "fig1", Dir: dir}},
				Parallelism: 2,
				CacheBytes:  1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Warm (registers the view slot), then append.
			if w := doJSON(t, s, "POST", q.path, q.body); w.Code != http.StatusOK {
				t.Fatalf("warm: %d %s", w.Code, w.Body.String())
			}
			resp, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
				{Kind: "vertex", ID: 4, Start: 3, End: 8, Props: map[string]string{"type": "person", "school": "MIT"}},
				{Kind: "edge", ID: 3, Src: 4, Dst: 1, Start: 4, End: 6, Props: map[string]string{"type": "co-author"}},
			}})
			if code != http.StatusOK {
				t.Fatalf("append: %d", code)
			}
			if resp.Patched != 1 {
				t.Fatalf("patched = %d, want 1", resp.Patched)
			}
			w := doJSON(t, s, "POST", q.path, q.body)
			if w.Code != http.StatusOK {
				t.Fatalf("requery: %d %s", w.Code, w.Body.String())
			}
			if got := w.Header().Get("X-TGraph-Cache"); got != "patched" {
				t.Fatalf("requery outcome %q, want patched", got)
			}
			patched := w.Body.String()

			// Flush everything and recompute cold; the bodies must be
			// byte-identical.
			s.Cache().InvalidatePrefix("fig1|")
			w = doJSON(t, s, "POST", q.path, q.body)
			if w.Code != http.StatusOK {
				t.Fatalf("cold requery: %d %s", w.Code, w.Body.String())
			}
			if got := w.Header().Get("X-TGraph-Cache"); got != "miss" {
				t.Fatalf("cold requery outcome %q, want miss", got)
			}
			if cold := w.Body.String(); cold != patched {
				t.Errorf("patched body diverges from cold recompute:\npatched: %s\ncold:    %s", patched, cold)
			}
		})
	}
}

// TestChangeWindowStaysOnInvalidatePath checks the gating: a
// change-based window chain never gets a patched entry — its window
// relation can restructure on any delta, so the view layer refuses it
// and the requery after an append is a cold miss.
func TestChangeWindowStaysOnInvalidatePath(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := WZoomRequest{Graph: "fig1", Window: "2 changes"}
	if w := doJSON(t, s, "POST", "/v1/wzoom", req); w.Code != http.StatusOK {
		t.Fatalf("warm: %d %s", w.Code, w.Body.String())
	}
	resp, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 5, Start: 2, End: 6, Props: map[string]string{"type": "person"}},
	}})
	if code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	if resp.Patched != 0 {
		t.Errorf("patched = %d, want 0 for a change-window chain", resp.Patched)
	}
	if w := doJSON(t, s, "POST", "/v1/wzoom", req); w.Header().Get("X-TGraph-Cache") != "miss" {
		t.Errorf("requery outcome %q, want miss", w.Header().Get("X-TGraph-Cache"))
	}
}

// TestViewPatchKeyIsTheReadKey: the key each view patch writes is the
// key run reads for the chain — the documented
// "<graph>|<tag>|v<version>|" + qcache.Key(stamp, canon), built from
// the state the append publishes — and the requery answers from it.
func TestViewPatchKeyIsTheReadKey(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	queries := []struct {
		ep   string
		path string
		body any
	}{
		{"azoom", "/v1/azoom", AZoomRequest{Graph: "fig1", GroupBy: "school", Count: "n"}},
		{"wzoom", "/v1/wzoom", WZoomRequest{Graph: "fig1", Window: "3 units", VResolve: "last"}},
	}
	for _, q := range queries {
		if w := doJSON(t, s, "POST", q.path, q.body); w.Code != http.StatusOK {
			t.Fatalf("warm %s: %d %s", q.path, w.Code, w.Body)
		}
	}
	resp, code := appendJSON(t, s, AppendRequest{Graph: "fig1", Deltas: []DeltaJSON{
		{Kind: "vertex", ID: 4, Start: 3, End: 8, Props: map[string]string{"type": "person", "school": "MIT"}},
	}})
	if code != http.StatusOK || resp.Patched != len(queries) {
		t.Fatalf("append: %d, patched %d, want %d", code, resp.Patched, len(queries))
	}
	st := s.graphs["fig1"].state.Load()
	for _, q := range queries {
		body, err := json.Marshal(q.body)
		if err != nil {
			t.Fatal(err)
		}
		_, steps, err := parseBody(q.ep, body)
		if err != nil {
			t.Fatal(err)
		}
		tag := steps.rangeTag()
		key := fmt.Sprintf("%s|%s|v%d|%s", "fig1", tag, st.tags[tag].version, qcache.Key(st.stamp, steps.canonical()))
		patched, ok := s.Cache().Get(key)
		if !ok {
			t.Fatalf("%s: no entry under %q", q.path, key)
		}
		w := doJSON(t, s, "POST", q.path, q.body)
		if got := w.Header().Get("X-TGraph-Cache"); got != "patched" || w.Body.String() != string(patched.([]byte)) {
			t.Errorf("%s: requery answered %q, want the patched entry under %q", q.path, got, key)
		}
	}
}
