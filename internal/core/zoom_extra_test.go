package core

import (
	"testing"

	"repro/internal/props"
	"repro/internal/temporal"
)

// TestAZoomAggregates: sum and avg across a group whose membership
// changes over time, verified per elementary interval.
func TestAZoomAggregates(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 10), Props: props.New("type", "p", "team", "a", "score", 10)},
		{ID: 2, Interval: temporal.MustInterval(5, 10), Props: props.New("type", "p", "team", "a", "score", 30)},
	}
	g := NewVE(ctx, vs, nil)
	spec := GroupByProperty("team", "team", props.Sum("total", "score"), props.Avg("mean", "score"), props.Max("best", "score"))
	for _, tg := range []TGraph{g, ToOG(g), ToRG(g)} {
		out, err := tg.AZoom(spec)
		if err != nil {
			t.Fatal(err)
		}
		states := canonV(t, out)
		if len(states) != 2 {
			t.Fatalf("%v: states = %v", tg.Rep(), fmtV(states))
		}
		// [0,5): only vertex 1. [5,10): both.
		first, second := states[0], states[1]
		if f := floatProp(first.Props, "total"); f != 10 {
			t.Errorf("%v: total[0,5) = %v", tg.Rep(), f)
		}
		if f := floatProp(second.Props, "total"); f != 40 {
			t.Errorf("%v: total[5,10) = %v", tg.Rep(), f)
		}
		if f := floatProp(second.Props, "mean"); f != 20 {
			t.Errorf("%v: mean[5,10) = %v", tg.Rep(), f)
		}
		if second.Props.GetInt("best") != 30 {
			t.Errorf("%v: best[5,10) = %v", tg.Rep(), second.Props.GetInt("best"))
		}
	}
}

// TestAZoomMultigraph: parallel edges between the same vertices stay
// distinct through redirection.
func TestAZoomMultigraph(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 10), Props: props.New("type", "p", "team", "a")},
		{ID: 2, Interval: temporal.MustInterval(0, 10), Props: props.New("type", "p", "team", "b")},
	}
	es := []EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 5), Props: props.New("type", "mail")},
		{ID: 2, Src: 1, Dst: 2, Interval: temporal.MustInterval(2, 8), Props: props.New("type", "call")},
	}
	g := NewVE(ctx, vs, es)
	out, err := g.AZoom(GroupByProperty("team", "team"))
	if err != nil {
		t.Fatal(err)
	}
	edges := canonE(t, out)
	if len(edges) != 2 {
		t.Fatalf("multigraph collapsed: %v", fmtE(edges))
	}
	if edges[0].ID == edges[1].ID {
		t.Error("parallel zoomed edges must keep distinct identities")
	}
	types := map[string]temporal.Interval{}
	for _, e := range edges {
		types[e.Props.Type()] = e.Interval
	}
	if !types["mail"].Equal(temporal.MustInterval(0, 5)) || !types["call"].Equal(temporal.MustInterval(2, 8)) {
		t.Errorf("edge intervals wrong: %v", types)
	}
}

// TestAZoomCustomEdgeSkolem verifies the EdgeSkolem hook.
func TestAZoomCustomEdgeSkolem(t *testing.T) {
	ctx := testCtx()
	g := figure1(ctx)
	spec := GroupByProperty("school", "school")
	spec.EdgeSkolem = func(id EdgeID, src, dst VertexID) EdgeID { return id + 1000 }
	out, err := g.AZoom(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out.EdgeStates() {
		if e.ID != 1001 && e.ID != 1002 {
			t.Errorf("custom edge skolem ignored: id %d", e.ID)
		}
	}
}

// TestAZoomSkolemDeclinesAll: a Skolem function declining every state
// yields an empty graph.
func TestAZoomSkolemDeclinesAll(t *testing.T) {
	ctx := testCtx()
	g := figure1(ctx)
	spec := AZoomSpec{Skolem: func(VertexID, props.Props) (VertexID, bool) { return 0, false }}
	for _, tg := range []TGraph{g, ToOG(g), ToRG(g)} {
		out, err := tg.AZoom(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(out.VertexStates()); n != 0 {
			t.Errorf("%v: %d vertex states, want 0", tg.Rep(), n)
		}
		if n := len(out.EdgeStates()); n != 0 {
			t.Errorf("%v: %d edge states, want 0", tg.Rep(), n)
		}
	}
}

// TestOGAZoomRoutingTableSharesHistories: OG aZoom's vertex index, its
// routing table, holds every vertex's history array itself, not a copy
// of it. Every state declines the Skolem function, so nothing but the
// index grows with the vertex count, and the zoom allocates far fewer
// than one object per vertex.
func TestOGAZoomRoutingTableSharesHistories(t *testing.T) {
	const n = 2000
	ctx := testCtx()
	defer ctx.Close()
	vs := make([]VertexTuple, n)
	for i := range vs {
		vs[i] = VertexTuple{ID: VertexID(i + 1), Interval: temporal.MustInterval(0, 10), Props: props.New("type", "p")}
	}
	g := ToOG(NewVE(ctx, vs, nil))
	spec := GroupByProperty("team", "team")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := g.AZoom(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/4 {
		t.Errorf("OG aZoom over %d vertices: %v allocs, want at most %d (no copy of a history per vertex)", n, allocs, n/4)
	}
}

// TestAZoomShuffleCounts pins DESIGN's claim-1 departure on Figure 1:
// VE aZoom shuffles once (the vertex group-by; its edges probe a
// gathered vertex index instead of joining twice), OG twice (vertex
// and edge group-by) and RG once per snapshot (its per-snapshot
// reduce).
func TestAZoomShuffleCounts(t *testing.T) {
	spec := GroupByProperty("school", "school", props.Count("students"))
	ctx := testCtx()
	defer ctx.Close()
	ve := figure1(ctx)
	og, rg := ToOG(ve), ToRG(ve)
	for _, c := range []struct {
		g    TGraph
		want int64
	}{{ve, 1}, {og, 2}, {rg, int64(rg.NumSnapshots())}} {
		before := ctx.Metrics()
		if _, err := c.g.AZoom(spec); err != nil {
			t.Fatal(err)
		}
		after := ctx.Metrics()
		n, recs := after.Shuffles-before.Shuffles, after.ShuffledRecords-before.ShuffledRecords
		t.Logf("%v aZoom: %d shuffles, %d shuffled records", c.g.Rep(), n, recs)
		if n != c.want {
			t.Errorf("%v aZoom: %d shuffles, want %d", c.g.Rep(), n, c.want)
		}
	}
}

// TestAZoomComposes: zooming an already-zoomed graph (schools ->
// school-count buckets).
func TestAZoomComposes(t *testing.T) {
	ctx := testCtx()
	g := figure1(ctx)
	mid, err := g.AZoom(GroupByProperty("school", "school", props.Count("students")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := mid.AZoom(GroupByProperty("students", "bucket", props.Count("schools")))
	if err != nil {
		t.Fatal(err)
	}
	// Buckets by student count: during [1,7): MIT has 2, CMU (from 5)
	// has 1. During [7,9): MIT 1, CMU 1 -> bucket "1" has 2 schools.
	states := canonV(t, out)
	var bucket1 []VertexTuple
	for _, v := range states {
		if v.Props.GetString("name") == "1" || v.Props.GetInt("name") == 1 {
			bucket1 = append(bucket1, v)
		}
	}
	found := false
	for _, b := range bucket1 {
		if b.Interval.Covers(temporal.MustInterval(7, 9)) && b.Props.GetInt("schools") == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("bucket-1 should contain 2 schools during [7,9): %v", fmtV(states))
	}
}

// TestWZoomPerKeyResolve: per-attribute resolvers.
func TestWZoomPerKeyResolve(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 3), Props: props.New("type", "p", "city", "NYC", "job", "phd")},
		{ID: 1, Interval: temporal.MustInterval(3, 6), Props: props.New("type", "p", "city", "SF", "job", "eng")},
	}
	g := NewVE(ctx, vs, nil)
	spec := WZoomSpec{
		Window: temporal.MustEveryN(6),
		VQuant: temporal.All(),
		VResolve: props.ResolveSpec{
			Default: props.ResolveFirst,
			PerKey:  map[string]props.Resolver{"job": props.ResolveLast},
		},
	}
	for _, tg := range []TGraph{g, ToOG(g), ToRG(g)} {
		out, err := tg.WZoom(spec)
		if err != nil {
			t.Fatal(err)
		}
		states := canonV(t, out)
		if len(states) != 1 {
			t.Fatalf("%v: states = %v", tg.Rep(), fmtV(states))
		}
		p := states[0].Props
		if p.GetString("city") != "NYC" || p.GetString("job") != "eng" {
			t.Errorf("%v: resolved props = %v, want city=NYC (first) job=eng (last)", tg.Rep(), p)
		}
	}
}

// TestWZoomAtLeastBoundary: "at least n" is inclusive — exactly half
// the window satisfies AtLeast(0.5) (while Most would reject it), and
// less than half does not.
func TestWZoomAtLeastBoundary(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 1), Props: props.New("type", "p")}, // covers 1 of 4
		{ID: 2, Interval: temporal.MustInterval(0, 2), Props: props.New("type", "p")}, // covers 2 of 4
		{ID: 3, Interval: temporal.MustInterval(0, 4), Props: props.New("type", "p")}, // covers 4 of 4 (pins the lifetime)
	}
	g := NewVE(ctx, vs, nil)
	out, err := g.WZoom(WZoomSpec{Window: temporal.MustEveryN(4), VQuant: temporal.MustAtLeast(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	states := canonV(t, out)
	if len(states) != 2 || states[0].ID != 2 || states[1].ID != 3 {
		t.Errorf("at least 0.5 must keep exactly-half coverage and drop below-half: %v", fmtV(states))
	}
	// Most rejects the exactly-half vertex that AtLeast(0.5) keeps.
	out, err = g.WZoom(WZoomSpec{Window: temporal.MustEveryN(4), VQuant: temporal.Most()})
	if err != nil {
		t.Fatal(err)
	}
	if states := canonV(t, out); len(states) != 1 || states[0].ID != 3 {
		t.Errorf("most must reject exactly-half coverage: %v", fmtV(states))
	}
}

// TestWZoomAtLeastOneIsAll: "at least 1" retains exactly what All()
// retains. Before the inclusive fix, AtLeast(1) was unsatisfiable.
func TestWZoomAtLeastOneIsAll(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 4), Props: props.New("type", "p")}, // full window
		{ID: 2, Interval: temporal.MustInterval(0, 3), Props: props.New("type", "p")}, // 3 of 4
	}
	g := NewVE(ctx, vs, nil)
	for _, q := range []temporal.Quantifier{temporal.MustAtLeast(1), temporal.All()} {
		for _, tg := range []TGraph{g, ToOG(g), ToRG(g), ToOGC(g)} {
			out, err := tg.WZoom(WZoomSpec{Window: temporal.MustEveryN(4), VQuant: q})
			if err != nil {
				t.Fatal(err)
			}
			states := canonV(t, out)
			if len(states) != 1 || states[0].ID != 1 {
				t.Errorf("%v/%v: want only the fully-covering vertex, got %v", tg.Rep(), q, fmtV(states))
			}
		}
	}
}

// TestWZoomTailWindowClamped: with lifetime [0,10) and window size 3,
// the last window is [9,10), not [9,12). An entity alive for the whole
// observable tail must pass All() in that window. Before the clamp fix
// the entity failed (covered 1 of a phantom 3).
func TestWZoomTailWindowClamped(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 10), Props: props.New("type", "p")},
	}
	g := NewVE(ctx, vs, nil)
	spec := WZoomSpec{Window: temporal.MustEveryN(3), VQuant: temporal.All()}
	for _, tg := range []TGraph{g, ToOG(g), ToRG(g), ToOGC(g)} {
		out, err := tg.WZoom(spec)
		if err != nil {
			t.Fatal(err)
		}
		states := canonV(t, out)
		// Windows [0,3) [3,6) [6,9) [9,10): all four pass, coalescing to
		// the full lifetime.
		merged := temporal.CoalesceIntervals(intervalsOf(states))
		if len(merged) != 1 || !merged[0].Equal(temporal.MustInterval(0, 10)) {
			t.Errorf("%v: tail-alive entity must survive All() in the clamped final window: %v", tg.Rep(), fmtV(states))
		}
	}
}

func intervalsOf(vs []VertexTuple) []temporal.Interval {
	out := make([]temporal.Interval, len(vs))
	for i, v := range vs {
		out[i] = v.Interval
	}
	return out
}

// TestWZoomGapsWithinEntity: an entity with a gap inside one window
// sums its covered duration across the gap.
func TestWZoomGapsWithinEntity(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 2), Props: props.New("type", "p")},
		{ID: 1, Interval: temporal.MustInterval(4, 6), Props: props.New("type", "p")},
	}
	g := NewVE(ctx, vs, nil)
	// Window [0,6): covered 4 of 6. most passes (4/6 > 1/2); all fails.
	for _, tc := range []struct {
		q    temporal.Quantifier
		want int
	}{{temporal.Most(), 1}, {temporal.All(), 0}} {
		out, err := g.WZoom(WZoomSpec{Window: temporal.MustEveryN(6), VQuant: tc.q})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(canonV(t, out)); got != tc.want {
			t.Errorf("%v: %d states, want %d", tc.q, got, tc.want)
		}
	}
}

// TestOGCRoundTripWithGaps: presence gaps survive OGC conversion.
func TestOGCRoundTripWithGaps(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 2), Props: props.New("type", "p")},
		{ID: 1, Interval: temporal.MustInterval(5, 8), Props: props.New("type", "p")},
		{ID: 2, Interval: temporal.MustInterval(0, 8), Props: props.New("type", "p")},
	}
	g := NewVE(ctx, vs, nil)
	ogc := ToOGC(g)
	states := canonV(t, ogc)
	var v1 []temporal.Interval
	for _, s := range states {
		if s.ID == 1 {
			v1 = append(v1, s.Interval)
		}
	}
	merged := temporal.CoalesceIntervals(v1)
	if len(merged) != 2 || !merged[0].Equal(temporal.MustInterval(0, 2)) || !merged[1].Equal(temporal.MustInterval(5, 8)) {
		t.Errorf("gap lost in OGC: %v", merged)
	}
}

// TestWZoomMostDanglingEdges: most vs exists requires dangling-edge
// removal; the removed edge's window must not survive.
func TestWZoomMostDanglingEdges(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 1), Props: props.New("type", "p")}, // 1 of 4: fails most
		{ID: 2, Interval: temporal.MustInterval(0, 4), Props: props.New("type", "p")},
	}
	es := []EdgeTuple{
		// Edge covers 1 of 4 -> passes exists but vertex 1 fails most.
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 1), Props: props.New("type", "e")},
	}
	g := NewVE(ctx, vs, es)
	spec := WZoomSpec{Window: temporal.MustEveryN(4), VQuant: temporal.Most(), EQuant: temporal.Exists()}
	for _, tg := range []TGraph{g, ToOG(g), ToRG(g), ToOGC(g)} {
		out, err := tg.WZoom(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(canonE(t, out)); n != 0 {
			t.Errorf("%v: dangling edge survived", tg.Rep())
		}
		if err := Validate(out.Coalesce()); err != nil {
			t.Errorf("%v: %v", tg.Rep(), err)
		}
	}
}

// TestEmptyGraphOperations: zooms over empty graphs are no-ops, not
// crashes.
func TestEmptyGraphOperations(t *testing.T) {
	ctx := testCtx()
	g := NewVE(ctx, nil, nil)
	if out, err := g.AZoom(GroupByProperty("x", "y")); err != nil || len(out.VertexStates()) != 0 {
		t.Errorf("empty aZoom: %v", err)
	}
	if out, err := g.WZoom(WZoomSpec{Window: temporal.MustEveryN(3)}); err != nil || len(out.VertexStates()) != 0 {
		t.Errorf("empty wZoom: %v", err)
	}
	if !g.Lifetime().IsEmpty() {
		t.Error("empty graph lifetime should be empty")
	}
	if c := g.Coalesce(); c.NumVertices() != 0 {
		t.Error("empty coalesce")
	}
	for _, rep := range []Representation{RepRG, RepOG, RepOGC} {
		conv, err := Convert(g, rep)
		if err != nil {
			t.Fatalf("Convert empty to %v: %v", rep, err)
		}
		if conv.NumVertices() != 0 {
			t.Errorf("%v: non-empty", rep)
		}
	}
}

func floatProp(p props.Props, k string) float64 {
	v, _ := p.Get(k)
	f, _ := v.AsFloat()
	return f
}
