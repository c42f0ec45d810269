package tgraph_test

import (
	"sync"
	"sync/atomic"
	"testing"

	tgraph "repro"
)

func cacheFixture(t *testing.T) tgraph.Graph {
	t.Helper()
	ctx := tgraph.NewContext(tgraph.WithParallelism(2))
	vs := []tgraph.VertexTuple{
		{ID: 1, Interval: tgraph.MustInterval(1, 7), Props: tgraph.NewProps("type", "person", "school", "MIT")},
		{ID: 2, Interval: tgraph.MustInterval(2, 9), Props: tgraph.NewProps("type", "person", "school", "CMU")},
		{ID: 3, Interval: tgraph.MustInterval(1, 9), Props: tgraph.NewProps("type", "person", "school", "MIT")},
	}
	es := []tgraph.EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: tgraph.MustInterval(2, 7), Props: tgraph.NewProps("type", "co-author")},
	}
	return tgraph.FromStates(ctx, vs, es)
}

func TestQueryRunCached(t *testing.T) {
	g := cacheFixture(t)
	cache := tgraph.NewQueryCache(1 << 20)
	key := tgraph.CacheKey("test-graph", "azoom(school)")

	build := func() (tgraph.Graph, error) {
		return tgraph.NewPipeline(g).AZoom(tgraph.GroupByProperty("school", "school", tgraph.Count("members"))).Result()
	}
	r1, out, err := tgraph.CachedResult(cache, key, build)
	if err != nil || out != tgraph.CacheMiss {
		t.Fatalf("first CachedResult: outcome=%v err=%v", out, err)
	}
	r2, out, err := tgraph.CachedResult(cache, key, build)
	if err != nil || out != tgraph.CacheHit {
		t.Fatalf("second CachedResult: outcome=%v err=%v", out, err)
	}
	if r1 != r2 {
		t.Error("cache hit should return the identical resident graph")
	}
	if r1.NumVertices() != 2 {
		t.Errorf("school groups = %d, want 2", r1.NumVertices())
	}
}

// Concurrent identical cached pipelines execute once and share.
func TestCachedResultSingleflight(t *testing.T) {
	g := cacheFixture(t)
	cache := tgraph.NewQueryCache(1 << 20)
	key := tgraph.CacheKey("test-graph", "wzoom(3 units)")
	var builds atomic.Int64

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := tgraph.CachedResult(cache, key, func() (tgraph.Graph, error) {
				builds.Add(1)
				return tgraph.NewPipeline(g).
					WZoom(tgraph.WZoomSpec{Window: tgraph.EveryN(3)}).
					Result()
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("pipeline built %d times for %d concurrent calls, want 1", got, n)
	}
}

// Stamp is stable across reads and advances when the directory is
// re-saved, so CacheKey(stamp, ...) keys stop matching stale results.
func TestStampAsCacheIdentity(t *testing.T) {
	g := cacheFixture(t)
	dir := t.TempDir()
	if err := tgraph.Save(dir, g, tgraph.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	s1, err := tgraph.Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := tgraph.Stamp(dir)
	if err != nil || s1 != s2 {
		t.Fatalf("stamp unstable: %q vs %q (%v)", s1, s2, err)
	}
	if err := tgraph.Save(dir, g, tgraph.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	s3, err := tgraph.Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Error("stamp did not advance after re-save")
	}
	if tgraph.CacheKey(s1, "op") == tgraph.CacheKey(s3, "op") {
		t.Error("cache keys should differ across save epochs")
	}
}

// Rebind lets concurrent queries attach independent contexts to one
// shared graph through the facade.
func TestFacadeRebind(t *testing.T) {
	g := cacheFixture(t)
	rb, err := tgraph.Rebind(g, tgraph.NewContext(tgraph.WithParallelism(2)))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Rep() != g.Rep() {
		t.Errorf("rebind changed representation: %v -> %v", g.Rep(), rb.Rep())
	}
	out, err := rb.WZoom(tgraph.WZoomSpec{Window: tgraph.EveryN(4)})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumVertices() == 0 {
		t.Error("rebound zoom returned empty graph")
	}
}
