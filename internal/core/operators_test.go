package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/props"
	"repro/internal/temporal"
)

func TestTrim(t *testing.T) {
	g := figure1(testCtx())
	out, err := Trim(g, temporal.MustInterval(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !temporal.MustInterval(2, 6).Covers(out.Lifetime()) {
		t.Errorf("lifetime %v escapes trim window", out.Lifetime())
	}
	// On VE the clip is partition-wise: no shuffle, and figure1's
	// coalesced flag survives (clipping cannot make states adjacent).
	if m := g.Context().Metrics(); m.Shuffles != 0 {
		t.Errorf("VE Trim shuffled %d times, want a narrow pass", m.Shuffles)
	}
	if !out.IsCoalesced() {
		t.Error("Trim of a coalesced VE must stay coalesced")
	}
	if raw, err := Trim(NewVE(testCtx(), g.VertexStates(), g.EdgeStates()), temporal.MustInterval(2, 6)); err != nil || raw.IsCoalesced() {
		t.Errorf("Trim of an unflagged VE: coalesced=%v err=%v, want unflagged", raw != nil && raw.IsCoalesced(), err)
	}
	vs := canonV(t, out)
	for _, v := range vs {
		if v.ID == cat && !v.Interval.Equal(temporal.MustInterval(2, 6)) {
			t.Errorf("Cat trimmed to %v, want [2,6)", v.Interval)
		}
	}
	// e2 lives at [7,9): entirely outside.
	for _, e := range out.EdgeStates() {
		if e.ID == 2 {
			t.Error("e2 must vanish under Trim([2,6))")
		}
	}
	if err := Validate(out.Coalesce()); err != nil {
		t.Errorf("trimmed graph invalid: %v", err)
	}
	// Representation preserved.
	og, err := Trim(ToOG(g), temporal.MustInterval(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if og.Rep() != RepOG {
		t.Errorf("Trim changed representation to %v", og.Rep())
	}
	requireGraphsEqual(t, "OG trim", og, out)
}

func TestSubgraph(t *testing.T) {
	g := figure1(testCtx())
	// Keep only MIT people; Bob disappears entirely, so e1 and e2 lose
	// an endpoint and must be clipped away.
	out, err := Subgraph(g, func(v VertexTuple) bool {
		return v.Props.GetString("school") == "MIT"
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs := canonV(t, out)
	if len(vs) != 2 {
		t.Fatalf("states = %v, want Ann and Cat", fmtV(vs))
	}
	if len(out.EdgeStates()) != 0 {
		t.Errorf("edges referencing Bob must be removed: %v", fmtE(out.EdgeStates()))
	}
	if err := Validate(out.Coalesce()); err != nil {
		t.Errorf("subgraph invalid: %v", err)
	}
}

func TestSubgraphClipsEdgesPointwise(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 10), Props: props.New("type", "p", "ok", true)},
		{ID: 2, Interval: temporal.MustInterval(0, 5), Props: props.New("type", "p", "ok", true)},
		{ID: 2, Interval: temporal.MustInterval(5, 10), Props: props.New("type", "p", "ok", false)},
	}
	es := []EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 10), Props: props.New("type", "e")},
	}
	g := NewVE(ctx, vs, es)
	out, err := Subgraph(g, func(v VertexTuple) bool {
		okv, _ := v.Props.Get("ok")
		ok, _ := okv.AsBool()
		return ok
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	edges := canonE(t, out)
	if len(edges) != 1 || !edges[0].Interval.Equal(temporal.MustInterval(0, 5)) {
		t.Errorf("edge must clip to vertex-2 survival [0,5): %v", fmtE(edges))
	}
}

func TestSubgraphEdgePredicate(t *testing.T) {
	g := figure1(testCtx())
	out, err := Subgraph(g, nil, func(e EdgeTuple) bool { return e.ID == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if n := len(canonE(t, out)); n != 1 {
		t.Errorf("edge predicate kept %d edges, want 1", n)
	}
	if n := len(canonV(t, out)); n != 4 {
		t.Errorf("vertices must be untouched, got %d states", n)
	}
}

func TestMapProps(t *testing.T) {
	g := figure1(testCtx())
	out, err := MapProps(g,
		func(v VertexTuple) props.Props {
			return v.Props.With("flag", props.Bool(true))
		},
		func(e EdgeTuple) props.Props {
			return props.New("type", "collaborate")
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.VertexStates() {
		if fv, _ := v.Props.Get("flag"); !mustBoolValue(fv) {
			t.Fatal("vertex transformation not applied")
		}
	}
	for _, e := range out.EdgeStates() {
		if e.Props.Type() != "collaborate" {
			t.Fatal("edge transformation not applied")
		}
	}
	// Original untouched (operators are immutable).
	for _, v := range g.VertexStates() {
		if _, ok := v.Props.Get("flag"); ok {
			t.Fatal("MapProps mutated its input")
		}
	}
}

func twoGraphs(ctx interface{}) (a, b *VE) {
	c := testCtx()
	a = NewVE(c, []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 6), Props: props.New("type", "p", "src", "a")},
		{ID: 2, Interval: temporal.MustInterval(0, 4), Props: props.New("type", "p", "src", "a")},
	}, []EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 4), Props: props.New("type", "e", "src", "a")},
	})
	b = NewVE(c, []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(3, 9), Props: props.New("type", "p", "src", "b")},
		{ID: 3, Interval: temporal.MustInterval(0, 9), Props: props.New("type", "p", "src", "b")},
	}, nil)
	return a, b
}

func TestUnion(t *testing.T) {
	a, b := twoGraphs(nil)
	out, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	vs := canonV(t, out)
	cover := map[VertexID][]temporal.Interval{}
	for _, v := range vs {
		cover[v.ID] = append(cover[v.ID], v.Interval)
	}
	// Vertex 1: [0,6) ∪ [3,9) = [0,9).
	if got := temporal.CoalesceIntervals(cover[1]); len(got) != 1 || !got[0].Equal(temporal.MustInterval(0, 9)) {
		t.Errorf("vertex 1 union coverage = %v", got)
	}
	if got := temporal.CoalesceIntervals(cover[3]); len(got) != 1 || !got[0].Equal(temporal.MustInterval(0, 9)) {
		t.Errorf("vertex 3 union coverage = %v", got)
	}
	// Left wins on conflicting props: during [3,6) vertex 1 keeps src=a.
	for _, v := range vs {
		if v.ID == 1 && v.Interval.Overlaps(temporal.MustInterval(3, 6)) && v.Props.GetString("src") != "a" {
			t.Errorf("left-wins violated: %s", vertexStateString(v))
		}
	}
	if err := Validate(out.Coalesce()); err != nil {
		t.Errorf("union invalid: %v", err)
	}
}

func TestIntersection(t *testing.T) {
	a, b := twoGraphs(nil)
	out, err := Intersection(a, b)
	if err != nil {
		t.Fatal(err)
	}
	vs := canonV(t, out)
	if len(vs) != 1 {
		t.Fatalf("intersection states = %v, want only vertex 1 at [3,6)", fmtV(vs))
	}
	if vs[0].ID != 1 || !vs[0].Interval.Equal(temporal.MustInterval(3, 6)) {
		t.Errorf("intersection = %s", vertexStateString(vs[0]))
	}
	if vs[0].Props.GetString("src") != "a" {
		t.Errorf("intersection must keep left props: %v", vs[0].Props)
	}
	if len(out.EdgeStates()) != 0 {
		t.Error("edge only in left graph must not survive intersection")
	}
}

func TestDifference(t *testing.T) {
	a, b := twoGraphs(nil)
	out, err := Difference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	vs := canonV(t, out)
	cover := map[VertexID][]temporal.Interval{}
	for _, v := range vs {
		cover[v.ID] = append(cover[v.ID], v.Interval)
	}
	// Vertex 1: [0,6) minus [3,9) = [0,3). Vertex 2: untouched [0,4).
	if got := temporal.CoalesceIntervals(cover[1]); len(got) != 1 || !got[0].Equal(temporal.MustInterval(0, 3)) {
		t.Errorf("vertex 1 difference = %v", got)
	}
	if got := temporal.CoalesceIntervals(cover[2]); len(got) != 1 || !got[0].Equal(temporal.MustInterval(0, 4)) {
		t.Errorf("vertex 2 difference = %v", got)
	}
	if _, ok := cover[3]; ok {
		t.Error("vertex 3 is not in the left graph")
	}
	// Edge 1 was valid [0,4) but vertex 1 now exists only [0,3): the
	// edge must clip to stay valid.
	es := canonE(t, out)
	if len(es) != 1 || !es[0].Interval.Equal(temporal.MustInterval(0, 3)) {
		t.Errorf("edge difference = %v", fmtE(es))
	}
	if err := Validate(out.Coalesce()); err != nil {
		t.Errorf("difference invalid: %v", err)
	}
}

// Property: set-operator point semantics against brute-force per-point
// evaluation, on random valid graphs.
func TestSetOperatorsPointSemantics(t *testing.T) {
	ctx := testCtx()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomValidGraph(r, ctx)
		// Binary operators require a shared identifier space: the same
		// edge id must mean the same edge (ρ is a function). The two
		// random graphs share vertex ids by construction; disambiguate
		// edge ids, which the generator assigns densely from 1.
		bRaw := randomValidGraph(r, ctx)
		bes := bRaw.EdgeStates()
		for i := range bes {
			bes[i].ID += 1000
		}
		b := NewVE(ctx, bRaw.VertexStates(), bes)
		type op struct {
			name string
			run  func(x, y TGraph) (TGraph, error)
			keep func(inA, inB bool) bool
		}
		ops := []op{
			{"union", Union, func(x, y bool) bool { return x || y }},
			{"intersection", Intersection, func(x, y bool) bool { return x && y }},
			{"difference", Difference, func(x, y bool) bool { return x && !y }},
		}
		presA := vertexPresence(a)
		presB := vertexPresence(b)
		for _, o := range ops {
			out, err := o.run(a, b)
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			presOut := vertexPresence(out)
			ids := map[VertexID]struct{}{}
			for id := range presA {
				ids[id] = struct{}{}
			}
			for id := range presB {
				ids[id] = struct{}{}
			}
			for id := range ids {
				for p := temporal.Time(0); p < 25; p++ {
					want := o.keep(containsPoint(presA[id], p), containsPoint(presB[id], p))
					got := containsPoint(presOut[id], p)
					if want != got {
						t.Logf("seed %d %s: vertex %d at %d: got %v want %v", seed, o.name, id, p, got, want)
						return false
					}
				}
			}
			if err := Validate(out.Coalesce()); err != nil {
				t.Logf("seed %d %s: invalid output: %v", seed, o.name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func vertexPresence(g TGraph) map[VertexID][]temporal.Interval {
	out := make(map[VertexID][]temporal.Interval)
	for _, v := range g.VertexStates() {
		out[v.ID] = append(out[v.ID], v.Interval)
	}
	return out
}

func containsPoint(ivs []temporal.Interval, p temporal.Time) bool {
	for _, iv := range ivs {
		if iv.Contains(p) {
			return true
		}
	}
	return false
}

// TestTrimThenZoomComposes: trim composes with the zoom operators.
func TestTrimThenZoomComposes(t *testing.T) {
	g := figure1(testCtx())
	trimmed, err := Trim(g, temporal.MustInterval(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	out, err := trimmed.AZoom(GroupByProperty("school", "school", props.Count("students")))
	if err != nil {
		t.Fatal(err)
	}
	vs := canonV(t, out)
	mit := findStates(vs, "MIT")
	if len(mit) != 1 || !mit[0].Interval.Equal(temporal.MustInterval(1, 7)) || mit[0].Props.GetInt("students") != 2 {
		t.Errorf("MIT after trim+zoom = %v", fmtV(mit))
	}
}

func mustBoolValue(v props.Value) bool {
	b, _ := v.AsBool()
	return b
}
