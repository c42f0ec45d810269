package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/temporal"
)

// TestCoalesceVEAllocatesPerPartition: coalescing 1 000 vertices and
// 1 000 edges, each split into three states that merge back into one,
// costs a few dozen allocations per relation and partition (the
// shuffle's and the grouping's arrays, the sorted index) —
// not several per entity. The bound is a fifth of the entity count.
func TestCoalesceVEAllocatesPerPartition(t *testing.T) {
	const entities, parts = 1000, 4
	ctx := dataflow.NewContext(dataflow.WithParallelism(1), dataflow.WithDefaultPartitions(parts))
	defer ctx.Close()
	p := props.New("type", "person", "name", "x")
	var vs []VertexTuple
	var es []EdgeTuple
	for _, iv := range []temporal.Interval{temporal.MustInterval(4, 9), temporal.MustInterval(0, 2), temporal.MustInterval(2, 4)} {
		for i := 1; i <= entities; i++ {
			vs = append(vs, VertexTuple{ID: VertexID(i), Interval: iv, Props: p})
			es = append(es, EdgeTuple{ID: EdgeID(i), Src: VertexID(i), Dst: 1, Interval: iv, Props: p})
		}
	}
	g := NewVE(ctx, vs, es)
	c := g.Coalesce()
	if nv, ne := len(c.VertexStates()), len(c.EdgeStates()); nv != entities || ne != entities {
		t.Fatalf("coalesced to %d vertex and %d edge states, want %d each", nv, ne, entities)
	}
	allocs := testing.AllocsPerRun(10, func() { g.Coalesce() })
	if limit := 2 * 50 * parts; allocs > float64(limit) {
		t.Errorf("VE.Coalesce over %d entities in %d partitions: %v allocs, want at most %d", 2*entities, parts, allocs, limit)
	}
}

// TestCoalesceLeavesItsInputAlone: the in-place fold runs on arrays the
// coalesce owns. The source graph — VE partitions, OG history arrays
// (shared with the result when already coalesced, copied when not) —
// reads the same before and after.
func TestCoalesceLeavesItsInputAlone(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: cat, Interval: temporal.MustInterval(4, 9), Props: props.New("type", "person")},
		{ID: cat, Interval: temporal.MustInterval(1, 4), Props: props.New("type", "person")},
		{ID: ann, Interval: temporal.MustInterval(1, 3), Props: props.New("type", "person", "x", 1)},
	}
	es := []EdgeTuple{
		{ID: 1, Src: ann, Dst: cat, Interval: temporal.MustInterval(2, 3), Props: props.New("type", "e")},
		{ID: 1, Src: ann, Dst: cat, Interval: temporal.MustInterval(1, 2), Props: props.New("type", "e")},
	}
	for _, g := range []TGraph{NewVE(ctx, vs, es), ToOG(NewVE(ctx, vs, es))} {
		beforeV, beforeE := g.VertexStates(), g.EdgeStates()
		c := g.Coalesce()
		if n := len(c.VertexStates()); n != 2 {
			t.Errorf("%s: coalesced to %d vertex states, want 2", g.Rep(), n)
		}
		if !reflect.DeepEqual(g.VertexStates(), beforeV) || !reflect.DeepEqual(g.EdgeStates(), beforeE) {
			t.Errorf("%s: Coalesce changed the graph it was called on", g.Rep())
		}
	}

	// The per-entity partial shares the histories it holds: change
	// points and windowing coalesce an unsorted history on a copy.
	h := []HistoryItem{
		{Interval: temporal.MustInterval(3, 5), Props: props.New("type", "a")},
		{Interval: temporal.MustInterval(1, 3), Props: props.New("type", "a")},
	}
	kept := slices.Clone(h)
	part := Histories{V: map[VertexID][]HistoryItem{cat: h}}
	if cps := part.ChangePoints(); !reflect.DeepEqual(cps, []temporal.Time{1, 5}) {
		t.Errorf("ChangePoints = %v, want [1 5] from the coalesced [1,5)", cps)
	}
	windows := temporal.MustEveryN(4).Windows(temporal.MustInterval(1, 5), nil)
	out, err := part.WZoom(context.Background(), WZoomSpec{Window: temporal.MustEveryN(4), VQuant: temporal.All()}, windows)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.V[cat]; len(got) != 1 || !got[0].Interval.Equal(temporal.MustInterval(1, 5)) {
		t.Errorf("WZoom = %v, want the whole window [1,5) under quantifier all", got)
	}
	if !reflect.DeepEqual(h, kept) {
		t.Errorf("Histories changed a history it holds: %v, was %v", h, kept)
	}
}

// TestCoalesceEdgeOrderIsTotal: two states of one edge id with the same
// interval, between different vertex pairs, used to come out of the
// unstable sort in either order, and whichever came last decided which
// of them the following state merged into. The endpoints now break the
// tie, so every arrival order coalesces to the same states.
func TestCoalesceEdgeOrderIsTotal(t *testing.T) {
	ctx := testCtx()
	p := props.New("type", "e")
	states := []EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 4), Props: p},
		{ID: 1, Src: 3, Dst: 4, Interval: temporal.MustInterval(0, 4), Props: p},
		{ID: 1, Src: 3, Dst: 4, Interval: temporal.MustInterval(4, 8), Props: p},
	}
	want := []EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 4), Props: p},
		{ID: 1, Src: 3, Dst: 4, Interval: temporal.MustInterval(0, 8), Props: p},
	}
	for _, order := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}, {2, 0, 1}} {
		var es []EdgeTuple
		for _, i := range order {
			es = append(es, states[i])
		}
		got := NewVE(ctx, nil, es).Coalesce().EdgeStates()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("arrival order %v coalesced to %v, want %v", order, got, want)
		}
	}
}

// TestCoalesceEdgeEntityIsItsKey: an edge id seen between two vertex
// pairs is two entities (EdgeKey). VE, OG and CoalescedStates fold
// edge 1's states (1→2)[0,2), (3→4)[1,3), (1→2)[2,4) alike: the two
// (1→2) states into [0,4), although a (3→4) state starts between them.
func TestCoalesceEdgeEntityIsItsKey(t *testing.T) {
	ctx := testCtx()
	p := props.New("type", "e")
	var vs []VertexTuple
	for id := VertexID(1); id <= 4; id++ {
		vs = append(vs, VertexTuple{ID: id, Interval: temporal.MustInterval(0, 4), Props: props.New("type", "v")})
	}
	es := []EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 2), Props: p},
		{ID: 1, Src: 3, Dst: 4, Interval: temporal.MustInterval(1, 3), Props: p},
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(2, 4), Props: p},
	}
	want := []EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 4), Props: p},
		{ID: 1, Src: 3, Dst: 4, Interval: temporal.MustInterval(1, 3), Props: p},
	}
	sorted := func(es []EdgeTuple) []EdgeTuple {
		slices.SortStableFunc(es, edgeKeyCmp)
		return es
	}
	_, _, _, got := CoalescedStates(NewVE(ctx, vs, es))
	for name, es := range map[string][]EdgeTuple{
		"VE":              sorted(NewVE(ctx, vs, es).Coalesce().EdgeStates()),
		"OG":              sorted(ToOG(NewVE(ctx, vs, es)).Coalesce().EdgeStates()),
		"CoalescedStates": got,
	} {
		if !reflect.DeepEqual(es, want) {
			t.Errorf("%s coalesced edge 1 to %v, want %v", name, es, want)
		}
	}
}

// TestCoalescedStates: the response-boundary fold reports what Coalesce
// does — representation, lifetime and states, in listing order — on a
// VE whose partitions hold empty states and value-equal runs, on the
// same VE flagged coalesced (only sorted, not folded), and on an RG,
// whose coalesced form is VE.
func TestCoalescedStates(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(2), dataflow.WithDefaultPartitions(3))
	defer ctx.Close()
	a, b := props.New("type", "a"), props.New("type", "b")
	vs := []VertexTuple{
		{ID: 2, Interval: temporal.MustInterval(3, 6), Props: a},
		{ID: 1, Interval: temporal.MustInterval(0, 2), Props: a},
		{ID: 2, Interval: temporal.MustInterval(0, 3), Props: a},
		{ID: 1, Interval: temporal.MustInterval(2, 2), Props: b},
		{ID: 1, Interval: temporal.MustInterval(2, 5), Props: b},
	}
	es := []EdgeTuple{
		{ID: 7, Src: 1, Dst: 2, Interval: temporal.MustInterval(1, 3), Props: a},
		{ID: 7, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 1), Props: a},
		{ID: 5, Src: 2, Dst: 1, Interval: temporal.MustInterval(4, 4), Props: a},
	}
	viaCoalesce := func(g TGraph) (Representation, temporal.Interval, []VertexTuple, []EdgeTuple) {
		c := g.Coalesce()
		cv, ce := c.VertexStates(), c.EdgeStates()
		slices.SortStableFunc(cv, vertexKeyCmp)
		slices.SortStableFunc(ce, edgeKeyCmp)
		return c.Rep(), c.Lifetime(), cv, ce
	}
	dv, de := dataflow.Parallelize(ctx, vs, 0), dataflow.Parallelize(ctx, es, 0)
	for _, g := range []TGraph{
		veFromDatasets(ctx, dv, de, false),
		veFromDatasets(ctx, dv, de, true),
		ToRG(NewVE(ctx, vs, es)),
	} {
		rep, life, gv, ge := CoalescedStates(g)
		wrep, wlife, wv, we := viaCoalesce(g)
		if rep != wrep || life != wlife || !reflect.DeepEqual(gv, wv) || !reflect.DeepEqual(ge, we) {
			t.Errorf("%v coalesced=%v: CoalescedStates = %v %v %v %v\nCoalesce = %v %v %v %v",
				g.Rep(), g.IsCoalesced(), rep, life, gv, ge, wrep, wlife, wv, we)
		}
	}
	if _, _, gv, ge := CoalescedStates(veFromDatasets(ctx, dv, de, false)); len(gv) != 3 || len(ge) != 1 {
		t.Errorf("folded to %v and %v, want vertex 2's runs and edge 7's runs merged, the empty states dropped", gv, ge)
	}
}
