package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/temporal"
)

// validGraph repairs randGraphStates' states into a graph that
// satisfies Definition 2.1: an untyped state gets a type, a state that
// overlaps its entity's previous one is dropped, and core.Subgraph clips
// every edge to the times both endpoints exist.
func validGraph(t *testing.T, ctx *dataflow.Context, vs []core.VertexTuple, es []core.EdgeTuple) core.TGraph {
	t.Helper()
	typed := func(p props.Props) props.Props {
		if p.Type() == "" {
			return props.New("type", "person")
		}
		return p
	}
	sortStates(vs, es)
	var kv []core.VertexTuple
	for _, v := range vs {
		if n := len(kv); v.Interval.IsEmpty() || n > 0 && kv[n-1].ID == v.ID && kv[n-1].Interval.End > v.Interval.Start {
			continue
		}
		v.Props = typed(v.Props)
		kv = append(kv, v)
	}
	var ke []core.EdgeTuple
	for _, e := range es {
		if n := len(ke); e.Interval.IsEmpty() || n > 0 && ke[n-1].ID == e.ID && ke[n-1].Interval.End > e.Interval.Start {
			continue
		}
		e.Props = typed(e.Props)
		ke = append(ke, e)
	}
	g, err := core.Subgraph(core.NewVE(ctx, kv, ke), nil, nil)
	if err == nil {
		err = core.Validate(g)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClipBodyQuick: on random graphs — randGraphStates' and their
// repairs by validGraph — and on one with a contained overlap, in the VE, OG and RG representations, and over
// every range with bounds in [-1, 16], clipping the encoded whole-graph
// aZoom result writes what a zoom over the trimmed graph writes (a range
// pulled up past aZoom^T answers as a range pushed down does) and what
// trimming the aZoom result writes — or it declines, which only a graph
// that breaks Definition 2.1 makes it do.
func TestClipBodyQuick(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer ctx.Close()
	az := core.GroupByProperty("school", "school", props.Count("n"))
	zoom := func(g core.TGraph, err error) core.TGraph {
		t.Helper()
		if err == nil {
			g, err = g.AZoom(az)
		}
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	trim := func(g core.TGraph, iv temporal.Interval) core.TGraph {
		t.Helper()
		out, err := core.Trim(g, iv)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var cases, declined int
	check := func(seed int64, vs []core.VertexTuple, es []core.EdgeTuple) bool {
		raw := core.NewVE(ctx, slices.Clone(vs), slices.Clone(es))
		for _, ve := range []core.TGraph{raw, validGraph(t, ctx, vs, es)} {
			valid := core.Validate(ve) == nil
			for _, rep := range []core.Representation{core.RepVE, core.RepOG, core.RepRG} {
				g, err := core.Convert(ve, rep)
				if err != nil {
					t.Fatal(err)
				}
				result := zoom(g, nil)
				whole := encodeGraph(result)
				for start := temporal.Time(-1); start < 16; start++ {
					for end := start + 1; end <= 16; end++ {
						iv := temporal.MustInterval(start, end)
						cases++
						got, ok := clipBody(whole, iv)
						if !ok {
							declined++
							if valid {
								t.Errorf("seed %d, %v, range %v: clipBody declined the result of a valid graph:\n%s", seed, rep, iv, whole)
								return false
							}
							continue
						}
						pushed := encodeGraph(zoom(core.Trim(g, iv)))
						trimmed := encodeGraph(trim(result, iv))
						if !bytes.Equal(got, pushed) || !bytes.Equal(got, trimmed) {
							t.Errorf("seed %d, %v, valid %v, range %v:\nclip    %s\nzoom    %s\ntrimmed %s", seed, rep, valid, iv, got, pushed, trimmed)
							return false
						}
					}
				}
			}
		}
		return true
	}
	// An edge state inside another of the same edge: a clip that cuts
	// both at its start lists them in the other order.
	mit := props.New("type", "person", "school", "MIT")
	check(0, []core.VertexTuple{{ID: 1, Interval: temporal.MustInterval(0, 12), Props: mit}, {ID: 2, Interval: temporal.MustInterval(0, 12), Props: mit}},
		[]core.EdgeTuple{
			{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 10), Props: props.New("type", "a")},
			{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(5, 8), Props: props.New("type", "b")},
		})
	f := func(seed int64) bool {
		vs, es := randGraphStates(rand.New(rand.NewSource(seed)))
		return check(seed, vs, es)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	t.Logf("%d cases, %d declined", cases, declined)
}

// statesOf returns the tuples a decoded body lists.
func statesOf(g GraphJSON) ([]core.VertexTuple, []core.EdgeTuple) {
	tuple := func(s StateJSON) (temporal.Interval, props.Props) {
		var b props.Builder
		for k, v := range s.Props {
			b.Set(k, props.StringVal(v))
		}
		return temporal.Interval{Start: temporal.Time(s.Start), End: temporal.Time(s.End)}, b.Build()
	}
	var vs []core.VertexTuple
	for _, s := range g.Vertices {
		iv, p := tuple(s)
		vs = append(vs, core.VertexTuple{ID: core.VertexID(s.ID), Interval: iv, Props: p})
	}
	var es []core.EdgeTuple
	for _, s := range g.Edges {
		iv, p := tuple(s)
		es = append(es, core.EdgeTuple{ID: core.EdgeID(s.ID), Src: core.VertexID(s.Src), Dst: core.VertexID(s.Dst), Interval: iv, Props: p})
	}
	return vs, es
}

// referenceClip is clipBody's specification, for the bodies it accepts:
// decode with encoding/json, clip every state, drop the ones left empty,
// recompute the lifetime from the states kept and encode.
func referenceClip(t *testing.T, body []byte, r temporal.Interval) []byte {
	t.Helper()
	var g GraphJSON
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatalf("clipBody accepted what encoding/json rejects: %v", err)
	}
	vs, es := statesOf(g)
	life := temporal.Empty
	keep := func(iv *temporal.Interval) bool {
		*iv = iv.Intersect(r)
		life = life.Union(*iv)
		return !iv.IsEmpty()
	}
	var kv []core.VertexTuple
	for _, v := range vs {
		if keep(&v.Interval) {
			kv = append(kv, v)
		}
	}
	var ke []core.EdgeTuple
	for _, e := range es {
		if keep(&e.Interval) {
			ke = append(ke, e)
		}
	}
	return encodeStates(g.Rep, life, kv, ke)
}

// FuzzClipBody: clipBody never panics on arbitrary bytes and ranges. On
// the bodies it is given in service — encoder output, here encodeStates
// writing the states encoding/json decodes from the fuzzed bytes — what
// it accepts it clips as referenceClip does, into an exactly sized body.
// The seeds are encoder outputs: negative ids, empty lists, property
// strings holding bytes a scanner could take for structure, and strings
// the encoder escapes, which clipBody declines.
func FuzzClipBody(f *testing.F) {
	tricky := props.New("type", `}`, "c", `],[},{`, "d", `:start:9`, "é", "José \ufffd")
	escaped := props.New("type", "person", "a", `,"start":9`, "b", `\`, "e", "\u2028<&>\x01")
	seeds := [][]byte{
		encodeStates("VE", temporal.Empty, nil, nil),
		encodeStates("OG", temporal.MustInterval(-5, 9),
			[]core.VertexTuple{
				{ID: -3, Interval: temporal.MustInterval(-5, 2), Props: tricky},
				{ID: -3, Interval: temporal.MustInterval(2, 4)},
				{ID: 7, Interval: temporal.MustInterval(0, 9), Props: props.New("type", "person", "name", "x")},
			},
			[]core.EdgeTuple{
				{ID: math.MinInt64, Src: -3, Dst: 7, Interval: temporal.MustInterval(0, 2), Props: tricky},
				{ID: 4, Dst: 7, Interval: temporal.MustInterval(1, 3)},
			}),
		encodeStates("VE", temporal.MustInterval(0, 3), nil,
			[]core.EdgeTuple{{ID: 1, Src: 2, Interval: temporal.MustInterval(0, 3), Props: escaped}}),
	}
	if _, ok := clipBody(seeds[1], temporal.MustInterval(0, 3)); !ok {
		f.Fatal("clipBody declined the seed with structure inside its strings")
	}
	if _, ok := clipBody(seeds[2], temporal.MustInterval(0, 3)); ok {
		f.Fatal("clipBody accepted escaped strings")
	}
	for _, b := range seeds {
		f.Add(b, int64(0), int64(3))
		f.Add(b, int64(-4), int64(1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, start, end int64) {
		r := temporal.Interval{Start: temporal.Time(start), End: temporal.Time(end)}
		clipBody(raw, r)
		var g GraphJSON
		if json.Unmarshal(raw, &g) != nil {
			return
		}
		vs, es := statesOf(g)
		body := encodeStates(g.Rep, temporal.Interval{Start: temporal.Time(g.Lifetime[0]), End: temporal.Time(g.Lifetime[1])}, vs, es)
		got, ok := clipBody(body, r)
		if !ok {
			return
		}
		if want := referenceClip(t, body, r); !bytes.Equal(got, want) {
			t.Fatalf("range %v of %s:\n got %s\nwant %s", r, body, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("clipped body has %d bytes of slack", cap(got)-len(got))
		}
	})
}

// TestRangeAZoomPullUp: a caching server answers every [range, azoom]
// chain as a server without a cache, which zooms the trimmed graph —
// flat and sharded, before and after an append (the
// reference after it replays the log). A narrow range zooms itself while
// the whole-graph body is not resident; a range over the whole lifetime
// computes that body once, and eight more ranges are clipped from it. A
// range the append misses stays a hit.
func TestRangeAZoomPullUp(t *testing.T) {
	narrow, all := temporal.MustInterval(10, 20), temporal.MustInterval(-10, 1000)
	ranges := []temporal.Interval{
		temporal.MustInterval(0, 10), temporal.MustInterval(5, 20), temporal.MustInterval(10, 40),
		temporal.MustInterval(-5, 3), temporal.MustInterval(30, 75), temporal.MustInterval(0, 200),
		temporal.MustInterval(59, 61), temporal.MustInterval(150, 160),
	}
	asked := append([]temporal.Interval{narrow, all}, ranges...)
	pullups := obs.Default().Counter("serve.range_pullups")
	for _, shards := range []int{0, 2} {
		name := fmt.Sprintf("shards=%d", shards)
		dir := t.TempDir()
		saveShardFixture(t, dir)
		// answers sends every asked range to s and counts what each one
		// computed and clipped.
		answers := func(s *Server) (out []*httptest.ResponseRecorder, computed, clipped []int64) {
			for _, iv := range asked {
				c0, p0 := computations(), pullups.Value()
				out = append(out, doJSON(t, s, "POST", "/v1/pipeline", PipelineRequest{Graph: "g", Steps: []StepRequest{
					{Op: "range", Start: int64(iv.Start), End: int64(iv.End)},
					{Op: "azoom", GroupBy: "dept", Count: "members"},
				}}))
				computed, clipped = append(computed, computations()-c0), append(clipped, pullups.Value()-p0)
			}
			return out, computed, clipped
		}
		// cold answers from a server without a cache (no residency: no
		// pull-up), which replays any appended record from the log.
		cold := func() []*httptest.ResponseRecorder {
			s := newServerOn(t, dir, Config{Shards: shards, CacheBytes: -1})
			defer s.Drain()
			out, _, _ := answers(s)
			return out
		}
		compare := func(when string, got, want []*httptest.ResponseRecorder) {
			t.Helper()
			for i, iv := range asked {
				if got[i].Code != want[i].Code || !bytes.Equal(got[i].Body.Bytes(), want[i].Body.Bytes()) {
					t.Errorf("%s %s, range %v: cached %d %s\ncold %d %s", name, when, iv, got[i].Code, got[i].Body, want[i].Code, want[i].Body)
				}
			}
		}
		before := cold()
		cached := newServerOn(t, dir, Config{Shards: shards})
		got, computed, clipped := answers(cached)
		compare("before the append", got, before)
		if computed[0] != 1 || clipped[0] != 0 {
			t.Errorf("%s: a narrow range with no whole-graph body computed %d and clipped %d, want 1 and 0", name, computed[0], clipped[0])
		}
		if computed[1] != 1 || clipped[1] != 1 {
			t.Errorf("%s: the covering range computed %d and clipped %d, want 1 and 1", name, computed[1], clipped[1])
		}
		for i := 2; i < len(asked); i++ {
			if computed[i] != 0 || clipped[i] != 1 {
				t.Errorf("%s: range %v computed %d and clipped %d after the whole graph, want 0 and 1", name, asked[i], computed[i], clipped[i])
			}
		}
		if _, code := appendJSON(t, cached, AppendRequest{Graph: "g", Deltas: shardAppendDeltas()}); code != http.StatusOK { // spans [90, 120)
			t.Fatalf("%s: append answered %d", name, code)
		}
		got, _, _ = answers(cached)
		if w := got[2]; w.Header().Get("X-TGraph-Cache") != "hit" {
			t.Errorf("%s: range %v, which the append missed, answered %q, want hit", name, asked[2], w.Header().Get("X-TGraph-Cache"))
		}
		cached.Drain()
		compare("after the append", got, cold())
	}
}

// TestPullUpSharesTheBudget: a pull-up's whole-graph compute and the
// chain's own compute after it share one budget, so a miss answers
// within the server's timeout, not twice it; and once the whole-graph
// compute has failed under a version, later misses compute their own
// chain until an append moves the version on. Every shard leg sleeps
// twice the timeout while the hook is armed.
func TestPullUpSharesTheBudget(t *testing.T) {
	const timeout = 100 * time.Millisecond
	var slow atomic.Bool
	dir := t.TempDir()
	saveShardFixture(t, dir)
	s := newServerOn(t, dir, Config{Shards: 2, Timeout: timeout, FaultHook: func(site string) error {
		if site == "shard.leg" && slow.Load() {
			time.Sleep(2 * timeout)
		}
		return nil
	}})
	defer s.Drain()
	pullups := obs.Default().Counter("serve.range_pullups")
	ask := func(iv temporal.Interval) (code int, took time.Duration, computed, clipped int64) {
		c0, p0, start := computations(), pullups.Value(), time.Now()
		w := doJSON(t, s, "POST", "/v1/pipeline", PipelineRequest{Graph: "g", Steps: []StepRequest{
			{Op: "range", Start: int64(iv.Start), End: int64(iv.End)},
			{Op: "azoom", GroupBy: "dept", Count: "members"},
		}})
		return w.Code, time.Since(start), computations() - c0, pullups.Value() - p0
	}
	all := temporal.MustInterval(-10, 1000)
	if code, _, _, _ := ask(temporal.MustInterval(10, 20)); code != http.StatusOK { // loads the graph
		t.Fatalf("warm-up answered %d", code)
	}
	slow.Store(true)
	code, took, computed, _ := ask(all)
	if code != http.StatusGatewayTimeout || computed != 1 || took >= 3*timeout {
		t.Errorf("a whole-graph compute past the timeout: %d after %v and %d computes, want 504 before %v after 1", code, took, computed, 3*timeout)
	}
	slow.Store(false)
	if code, _, computed, clipped := ask(all); code != http.StatusOK || computed != 1 || clipped != 0 {
		t.Errorf("the next miss: %d, %d computes, %d clipped, want 200, 1 and 0 (its own chain)", code, computed, clipped)
	}
	if _, code := appendJSON(t, s, AppendRequest{Graph: "g", Deltas: shardAppendDeltas()}); code != http.StatusOK {
		t.Fatalf("append answered %d", code)
	}
	if code, _, computed, clipped := ask(all); code != http.StatusOK || computed != 1 || clipped != 1 {
		t.Errorf("a miss after the append: %d, %d computes, %d clipped, want 200, 1 and 1 (the whole graph)", code, computed, clipped)
	}
}
