package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/incr"
	"repro/internal/props"
	"repro/internal/shard"
	"repro/internal/temporal"
)

// TestWZoomOneSidedDanglingEdges: under VQuant all and EQuant exists,
// every wZoom^T driver drops exactly the edge states one endpoint of
// which does not survive the window — the source's or the
// destination's alone, and per window, not per edge. The batch
// representations, an incremental view's Result and a 2-shard
// coordinator must all list the same two surviving states.
func TestWZoomOneSidedDanglingEdges(t *testing.T) {
	iv := temporal.MustInterval
	v := func(id core.VertexID, lo, hi temporal.Time) core.VertexTuple {
		return core.VertexTuple{ID: id, Interval: iv(lo, hi), Props: props.New("type", "p")}
	}
	e := func(id core.EdgeID, src, dst core.VertexID, lo, hi temporal.Time) core.EdgeTuple {
		return core.EdgeTuple{ID: id, Src: src, Dst: dst, Interval: iv(lo, hi), Props: props.New("type", "e")}
	}
	// Windows [0,4) and [4,8). Vertices 1 and 3 survive all in [0,4),
	// 3 in [4,8) too; 2 and 4 exist but fail all; 5 survives [0,4) and
	// fails [4,8).
	vs := []core.VertexTuple{v(1, 0, 4), v(2, 0, 2), v(3, 0, 8), v(4, 4, 6), v(5, 0, 5)}
	es := []core.EdgeTuple{
		e(10, 1, 2, 0, 2), // source survives, destination fails: dropped
		e(11, 2, 1, 0, 2), // source fails, destination survives: dropped
		e(12, 1, 3, 1, 3), // both survive: kept as [0,4)
		e(13, 3, 4, 4, 6), // source survives, destination fails: dropped
		e(14, 3, 5, 2, 5), // kept as [0,4), dropped in [4,8)
	}
	const want = "12 1->3 [0, 4)\n14 3->5 [0, 4)\n"
	spec := core.WZoomSpec{Window: temporal.MustEveryN(4), VQuant: temporal.All(), EQuant: temporal.Exists()}
	listed := func(es []core.EdgeTuple) string {
		_, es, _ = core.SortedCoalesced(nil, es)
		out := ""
		for _, e := range es {
			out += fmt.Sprintf("%d %d->%d %v\n", e.ID, e.Src, e.Dst, e.Interval)
		}
		return out
	}

	ctx := dataflow.NewContext(dataflow.WithParallelism(2), dataflow.WithDefaultPartitions(3))
	defer ctx.Close()
	ve := core.NewVE(ctx, vs, es)
	got := map[string]string{}
	for _, g := range []core.TGraph{ve, core.ToOG(ve), core.ToRG(ve), core.ToOGC(ve)} {
		out, err := g.WZoom(spec)
		if err != nil {
			t.Fatalf("%v: %v", g.Rep(), err)
		}
		got[g.Rep().String()] = listed(out.EdgeStates())
	}

	view, err := incr.NewWZoomView(ve, spec, incr.Options{})
	if err != nil {
		t.Fatalf("NewWZoomView: %v", err)
	}
	_, ves := view.Result()
	got["incr view"] = listed(ves)

	c := shard.NewFromStates(vs, es, shard.VertexCut{}, 2, shard.Options{Parallelism: 2})
	defer c.Close()
	q := shard.Query{Canon: "wzoom", Rep: core.RepVE, WZ: &spec,
		First: func(g core.TGraph) (core.TGraph, error) { return g.WZoom(spec) }}
	out, st, err := c.Run(context.Background(), ctx, q)
	if err != nil || st.Fallback {
		t.Fatalf("2-shard coordinator: %v (stats %+v), want the two-phase path", err, st)
	}
	got["2 shards"] = listed(out.EdgeStates())

	for driver, g := range got {
		if g != want {
			t.Errorf("%s kept edge states\n%s want\n%s", driver, g, want)
		}
	}
}
