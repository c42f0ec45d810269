package core

import (
	"cmp"

	"repro/internal/dataflow"
	"repro/internal/graphx"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Temporal attribute-based zoom (aZoom^T), Section 3.1. Conceptually
// the non-temporal node-creation operator runs over every snapshot
// under snapshot reducibility: the Skolem function f_s assigns new
// vertex identity, f_agg resolves identity-equivalent vertices within a
// snapshot and computes aggregate attributes, and edges are re-created
// re-pointed at the new vertices. aZoom^T does not require coalesced
// input and leaves its output uncoalesced (lazy coalescing, Section 4).

// azVertexState is the intermediate record of the vertex pipeline: one
// contributing input state mapped to its new identity.
type azVertexState struct {
	NewID    VertexID
	Interval temporal.Interval
	Orig     props.Props
}

// azVertexAcc accumulates one output vertex state.
type azVertexAcc struct {
	Base props.Props
	Agg  props.AggState
}

// azoomMapVertices applies f_s to a vertex state, yielding the
// intermediate record, or ok=false when the Skolem function declines.
func azoomMapVertices(spec AZoomSpec, id VertexID, iv temporal.Interval, p props.Props) (azVertexState, bool) {
	newID, ok := spec.Skolem(id, p)
	if !ok {
		return azVertexState{}, false
	}
	return azVertexState{NewID: newID, Interval: iv, Orig: p}, true
}

// azoomVerticesDataflow is the shared vertex pipeline of the VE and OG
// variants (Algorithm 2 lines 1-12 / Algorithm 3 lines 1-5): group the
// mapped states by new identity, align each group's intervals to the
// group's elementary intervals (the temporal splitter), and reduce
// identity-equivalent states per elementary interval with f_agg. emit
// appends the output of one group — its new identity and its states in
// interval order — to the partition's records.
func azoomVerticesDataflow[O any](spec AZoomSpec, mapped *dataflow.Dataset[azVertexState], emit func(newID VertexID, ts []VertexTuple, out []O) []O) *dataflow.Dataset[O] {
	agg := spec.Agg.Bind() // intern the agg labels once, outside the hot loop
	gsp := obs.StartSpan("group-by")
	groups := dataflow.GroupByKey(mapped, func(s azVertexState) VertexID { return s.NewID }, cmp.Compare[VertexID])
	gsp.End()
	defer obs.StartSpan("align-aggregate").End()
	return dataflow.FlatMapAppend(groups, func(gr dataflow.Group[VertexID, azVertexState], out []O) []O {
		// The group kernel is shared with incremental maintenance
		// (internal/incr), which re-runs it per affected Skolem group.
		// It does not keep its input, so the states are staged in its
		// scratch.
		sc := groupScratchPool.Get().(*groupScratch)
		sc.hist = sc.hist[:0]
		for _, s := range gr.Values {
			sc.hist = append(sc.hist, HistoryItem{Interval: s.Interval, Props: s.Orig})
		}
		out = emit(gr.Key, sc.azoomGroup(spec, agg, gr.Key, sc.hist), out)
		groupScratchPool.Put(sc)
		return out
	})
}

// AZoom over VE (Algorithm 2). Vertices follow the shared pipeline;
// edge redirection joins the edge relation with the vertex relation
// twice (VE stores foreign keys only), recomputing each edge state's
// interval as the intersection with both endpoint states.
func (g *VE) AZoom(spec AZoomSpec) (TGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(g.ctx, func() (TGraph, error) { return g.azoom(spec) })
}

func (g *VE) azoom(spec AZoomSpec) (TGraph, error) {
	defer obs.StartSpan("azoom.VE").End()
	vsp := obs.StartSpan("vertices")
	msp := obs.StartSpan("skolem-map")
	mapped := dataflow.FilterMap(g.v, func(t VertexTuple) (azVertexState, bool) {
		return azoomMapVertices(spec, t.ID, t.Interval, t.Props)
	})
	msp.End()
	v := azoomVerticesDataflow(spec, mapped, func(_ VertexID, ts, out []VertexTuple) []VertexTuple { return append(out, ts...) })
	vsp.End()
	if err := checkpoint(g.ctx, "azoom.VE:edges"); err != nil {
		return nil, err
	}

	edgeSkolem := spec.edgeSkolem()
	jsp := obs.StartSpan("edge-join")
	j1 := dataflow.Join(g.e, g.v,
		func(e EdgeTuple) VertexID { return e.Src },
		func(vt VertexTuple) VertexID { return vt.ID }, cmp.Compare[VertexID])
	j2 := dataflow.Join(j1, g.v,
		func(p dataflow.Pair[EdgeTuple, VertexTuple]) VertexID { return p.First.Dst },
		func(vt VertexTuple) VertexID { return vt.ID }, cmp.Compare[VertexID])
	jsp.End()
	rsp := obs.StartSpan("edge-redirect")
	e := dataflow.FilterMap(j2, func(p dataflow.Pair[dataflow.Pair[EdgeTuple, VertexTuple], VertexTuple]) (EdgeTuple, bool) {
		et, v1, v2 := p.First.First, p.First.Second, p.Second
		return redirectOne(spec, edgeSkolem, et,
			HistoryItem{Interval: v1.Interval, Props: v1.Props},
			HistoryItem{Interval: v2.Interval, Props: v2.Props})
	})
	rsp.End()
	return veFromDatasets(g.ctx, v, e, false), nil
}

// AZoom over OG (Algorithm 3). The vertex pipeline operates over the
// flattened history arrays; edge redirection uses the triplet-view
// routing table instead of joins, because OG gives each edge direct
// access to its endpoint histories.
func (g *OG) AZoom(spec AZoomSpec) (TGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(g.Context(), func() (TGraph, error) { return g.azoom(spec) })
}

func (g *OG) azoom(spec AZoomSpec) (TGraph, error) {
	defer obs.StartSpan("azoom.OG").End()
	vsp := obs.StartSpan("vertices")
	msp := obs.StartSpan("skolem-map")
	mapped := dataflow.FlatMapAppend(g.graph.Vertices(), func(v graphx.Vertex[[]HistoryItem], out []azVertexState) []azVertexState {
		for _, h := range v.Attr {
			if s, ok := azoomMapVertices(spec, v.ID, h.Interval, h.Props); ok {
				out = append(out, s)
			}
		}
		return out
	})
	msp.End()
	// A group's states are one vertex's history, in interval order.
	newV := azoomVerticesDataflow(spec, mapped, func(id VertexID, ts []VertexTuple, out []graphx.Vertex[[]HistoryItem]) []graphx.Vertex[[]HistoryItem] {
		h := make([]HistoryItem, len(ts))
		for i, t := range ts {
			h[i] = HistoryItem{Interval: t.Interval, Props: t.Props}
		}
		return append(out, graphx.Vertex[[]HistoryItem]{ID: id, Attr: h})
	})
	vsp.End()
	if err := checkpoint(g.Context(), "azoom.OG:edges"); err != nil {
		return nil, err
	}

	// Edge redirection via the routing table (recompute_history): the
	// table shares every vertex's history array, and each edge runs
	// through the same RedirectEdge kernel the incremental engine uses.
	rsp := obs.StartSpan("edge-redirect")
	table := make(map[VertexID][]HistoryItem, g.graph.NumVertices())
	for _, part := range g.graph.Vertices().Partitions() {
		for _, v := range part {
			table[v.ID] = v.Attr
		}
	}
	edgeSkolem := spec.edgeSkolem()
	redirected := dataflow.FlatMapAppend(g.graph.Edges(), func(e graphx.Edge[[]HistoryItem], out []dataflow.Pair[EdgeKey, HistoryItem]) []dataflow.Pair[EdgeKey, HistoryItem] {
		k := EdgeKey{ID: e.ID, Src: e.Src, Dst: e.Dst}
		for _, t := range RedirectEdge(spec, edgeSkolem, k, e.Attr, table[e.Src], table[e.Dst], nil) {
			out = append(out, dataflow.Pair[EdgeKey, HistoryItem]{
				First:  t.Key(),
				Second: HistoryItem{Interval: t.Interval, Props: t.Props},
			})
		}
		return out
	})
	egroups := dataflow.GroupByKey(redirected, func(p dataflow.Pair[EdgeKey, HistoryItem]) EdgeKey { return p.First }, EdgeKey.compare)
	newE := dataflow.Map(egroups, func(gr dataflow.Group[EdgeKey, dataflow.Pair[EdgeKey, HistoryItem]]) graphx.Edge[[]HistoryItem] {
		h := make([]HistoryItem, len(gr.Values))
		for i, p := range gr.Values {
			h[i] = p.Second
		}
		return graphx.Edge[[]HistoryItem]{
			ID:   gr.Key.ID,
			Src:  gr.Key.Src,
			Dst:  gr.Key.Dst,
			Attr: sortHistory(h),
		}
	})
	rsp.End()
	return ogFromGraph(graphx.FromDatasets(newV, newE, g.graph.Strategy()), false), nil
}

// AZoom over RG (Algorithm 1): the same non-temporal node creation runs
// independently over every snapshot — embarrassingly parallel across
// snapshots, but repeating all work once per snapshot. Edges access
// their endpoint attributes through the snapshot's triplet view (RG
// edges carry endpoint copies in the paper; the triplet view is
// GraphX's equivalent access path).
func (g *RG) AZoom(spec AZoomSpec) (TGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(g.ctx, func() (TGraph, error) { return g.azoom(spec) })
}

func (g *RG) azoom(spec AZoomSpec) (TGraph, error) {
	defer obs.StartSpan("azoom.RG").End()
	agg := spec.Agg.Bind()
	edgeSkolem := spec.edgeSkolem()
	newSnaps := make([]Snapshot, len(g.snapshots))
	for i, snap := range g.snapshots {
		// One snapshot is the natural cancellation granule of RG: all
		// work inside it is one independent non-temporal node creation.
		if err := checkpoint(g.ctx, "azoom.RG:snapshot"); err != nil {
			return nil, err
		}
		ssp := obs.StartSpan("snapshot")
		// Vertex update + identity-equivalence reduce within the snapshot.
		mapped := dataflow.FlatMapAppend(snap.Graph.Vertices(), func(v graphx.Vertex[props.Props], out []dataflow.Pair[VertexID, azVertexAcc]) []dataflow.Pair[VertexID, azVertexAcc] {
			newID, ok := spec.Skolem(v.ID, v.Attr)
			if !ok {
				return out
			}
			return append(out, dataflow.Pair[VertexID, azVertexAcc]{
				First:  newID,
				Second: azVertexAcc{Base: spec.newProps(newID, v.Attr), Agg: agg.Init(v.Attr)},
			})
		})
		reduced := dataflow.ReduceByKey(mapped,
			func(p dataflow.Pair[VertexID, azVertexAcc]) VertexID { return p.First }, cmp.Compare[VertexID],
			func(a, b dataflow.Pair[VertexID, azVertexAcc]) dataflow.Pair[VertexID, azVertexAcc] {
				return dataflow.Pair[VertexID, azVertexAcc]{
					First:  a.First,
					Second: azVertexAcc{Base: a.Second.Base, Agg: agg.Merge(a.Second.Agg, b.Second.Agg)},
				}
			})
		newVerts := dataflow.Map(reduced, func(p dataflow.Pair[VertexID, azVertexAcc]) graphx.Vertex[props.Props] {
			return graphx.Vertex[props.Props]{ID: p.First, Attr: agg.Result(p.Second.Base, p.Second.Agg)}
		})

		// Edge redirection via the snapshot triplet view.
		newEdges := dataflow.FlatMapAppend(graphx.Triplets(snap.Graph), func(t graphx.Triplet[props.Props, props.Props], out []graphx.Edge[props.Props]) []graphx.Edge[props.Props] {
			s1, ok1 := spec.Skolem(t.Edge.Src, t.SrcAttr)
			s2, ok2 := spec.Skolem(t.Edge.Dst, t.DstAttr)
			if !ok1 || !ok2 {
				return out
			}
			return append(out, graphx.Edge[props.Props]{
				ID:   edgeSkolem(t.Edge.ID, s1, s2),
				Src:  s1,
				Dst:  s2,
				Attr: t.Edge.Attr,
			})
		})
		newSnaps[i] = Snapshot{
			Interval: snap.Interval,
			Graph:    graphx.FromDatasets(newVerts, newEdges, snap.Graph.Strategy()),
		}
		ssp.End()
	}
	return NewRG(g.ctx, newSnaps), nil
}
