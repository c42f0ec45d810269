package core

import (
	"slices"

	"repro/internal/dataflow"
	"repro/internal/graphx"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/temporal"
)

// HistoryItem is one element of an OG entity's history array: a
// validity interval and the property values holding during it.
type HistoryItem struct {
	Interval temporal.Interval
	Props    props.Props
}

// OGVertex stores a vertex once, with the full evolution of its
// attributes as a history array sorted by start time (Figure 6).
type OGVertex struct {
	ID      VertexID
	History []HistoryItem
}

// OGEdge stores an edge once with its attribute history. Endpoint
// attributes are accessed through the graphx triplet view (the paper's
// OG embeds endpoint copies; vertex-mirroring provides the same access
// path without duplicating storage per edge).
type OGEdge struct {
	ID       EdgeID
	Src, Dst VertexID
	History  []HistoryItem
}

// OG is the One-Graph representation: all vertices and edges stored
// once, in a single aggregated structure modelled as one graphx graph.
// It balances temporal and structural locality and is the paper's
// overall best performer.
type OG struct {
	graph     *graphx.Graph[[]HistoryItem, []HistoryItem]
	edgeIDs   map[graphx.EdgeID]struct{} // distinct edge ids (cached)
	coalesced bool
	lifetime  temporal.Interval
}

// NewOG builds an OG graph from per-entity histories. Histories are
// sorted by start time; empty intervals are dropped.
func NewOG(ctx *dataflow.Context, vs []OGVertex, es []OGEdge) *OG {
	gvs := make([]graphx.Vertex[[]HistoryItem], 0, len(vs))
	for _, v := range vs {
		h := normalizeHistory(v.History)
		if len(h) == 0 {
			continue
		}
		gvs = append(gvs, graphx.Vertex[[]HistoryItem]{ID: v.ID, Attr: h})
	}
	ges := make([]graphx.Edge[[]HistoryItem], 0, len(es))
	for _, e := range es {
		h := normalizeHistory(e.History)
		if len(h) == 0 {
			continue
		}
		ges = append(ges, graphx.Edge[[]HistoryItem]{ID: e.ID, Src: e.Src, Dst: e.Dst, Attr: h})
	}
	g := graphx.New(ctx, gvs, ges, graphx.EdgePartition2D{})
	return ogFromGraph(g, false)
}

func ogFromGraph(g *graphx.Graph[[]HistoryItem, []HistoryItem], coalesced bool) *OG {
	life := temporal.Empty
	ids := make(map[graphx.EdgeID]struct{})
	for _, part := range g.Vertices().Partitions() {
		for _, v := range part {
			for _, h := range v.Attr {
				life = temporal.Span(life, h.Interval)
			}
		}
	}
	for _, part := range g.Edges().Partitions() {
		for _, e := range part {
			ids[e.ID] = struct{}{}
			for _, h := range e.Attr {
				life = temporal.Span(life, h.Interval)
			}
		}
	}
	return &OG{graph: g, edgeIDs: ids, coalesced: coalesced, lifetime: life}
}

// normalizeHistory drops empty intervals and sorts by start time. A
// history already in that form is returned as is — OG never writes to
// a history array it was given — anything else as a sorted copy.
func normalizeHistory(h []HistoryItem) []HistoryItem {
	empty := func(it HistoryItem) bool { return it.Interval.IsEmpty() }
	if !slices.ContainsFunc(h, empty) && slices.IsSortedFunc(h, historyCmp) {
		return h
	}
	out := slices.DeleteFunc(slices.Clone(h), empty)
	slices.SortStableFunc(out, historyCmp)
	return out
}

// Rep implements TGraph.
func (g *OG) Rep() Representation { return RepOG }

// Context implements TGraph.
func (g *OG) Context() *dataflow.Context { return g.graph.Context() }

// Lifetime implements TGraph.
func (g *OG) Lifetime() temporal.Interval { return g.lifetime }

// Graph exposes the underlying graphx graph.
func (g *OG) Graph() *graphx.Graph[[]HistoryItem, []HistoryItem] { return g.graph }

// Vertices returns the vertex dataset with history attributes.
func (g *OG) Vertices() *dataflow.Dataset[graphx.Vertex[[]HistoryItem]] {
	return g.graph.Vertices()
}

// Edges returns the edge dataset with history attributes.
func (g *OG) Edges() *dataflow.Dataset[graphx.Edge[[]HistoryItem]] { return g.graph.Edges() }

// VertexStates implements TGraph by flattening history arrays.
func (g *OG) VertexStates() []VertexTuple {
	var out []VertexTuple
	for _, part := range g.graph.Vertices().Partitions() {
		for _, v := range part {
			for _, h := range v.Attr {
				out = append(out, VertexTuple{ID: v.ID, Interval: h.Interval, Props: h.Props})
			}
		}
	}
	return out
}

// EdgeStates implements TGraph by flattening history arrays.
func (g *OG) EdgeStates() []EdgeTuple {
	var out []EdgeTuple
	for _, part := range g.graph.Edges().Partitions() {
		for _, e := range part {
			for _, h := range e.Attr {
				out = append(out, EdgeTuple{ID: e.ID, Src: e.Src, Dst: e.Dst, Interval: h.Interval, Props: h.Props})
			}
		}
	}
	return out
}

// NumVertices implements TGraph.
func (g *OG) NumVertices() int { return g.graph.NumVertices() }

// NumEdges implements TGraph.
func (g *OG) NumEdges() int { return len(g.edgeIDs) }

// IsCoalesced implements TGraph.
func (g *OG) IsCoalesced() bool { return g.coalesced }

// Coalesce implements TGraph: each entity's history array is coalesced
// locally — OG's temporal locality makes this a narrow (shuffle-free)
// map, in contrast to VE where coalescing needs a grouping shuffle.
func (g *OG) Coalesce() TGraph {
	if g.coalesced {
		return g
	}
	defer obs.StartSpan("coalesce.OG").End()
	v := dataflow.Map(g.graph.Vertices(), func(x graphx.Vertex[[]HistoryItem]) graphx.Vertex[[]HistoryItem] {
		x.Attr = coalesceHistory(x.Attr)
		return x
	})
	e := dataflow.Map(g.graph.Edges(), func(x graphx.Edge[[]HistoryItem]) graphx.Edge[[]HistoryItem] {
		x.Attr = coalesceHistory(x.Attr)
		return x
	})
	return ogFromGraph(graphx.FromDatasets(v, e, g.graph.Strategy()), true)
}

// coalesceHistory merges adjacent value-equivalent history items. h
// belongs to the graph being coalesced and is shared with it: an
// already coalesced history is returned as is, anything else is folded
// on a copy.
func coalesceHistory(h []HistoryItem) []HistoryItem {
	if temporal.IsCoalesced(h, historyIv, historyCmp, historyEq) {
		return h
	}
	return temporal.Coalesce(slices.Clone(h), historyIv, historyCmp, historyEq)
}

// sortHistory orders a history array by interval, in place, and
// returns it.
func sortHistory(h []HistoryItem) []HistoryItem {
	slices.SortStableFunc(h, historyCmp)
	return h
}
