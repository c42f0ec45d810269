package core

import (
	"cmp"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/temporal"
)

// VE is the Vertex-Edge representation: two flat temporal relations,
// one for vertex states and one for edge states (Figure 5 of the
// paper). It is compact but keeps neither temporal nor structural
// locality by default — consecutive states of an entity may live in
// different partitions; keyed operations re-establish locality at
// runtime via shuffles. VE is implemented directly over the dataflow
// engine (the paper implements it directly over Spark RDDs).
type VE struct {
	ctx       *dataflow.Context
	v         *dataflow.Dataset[VertexTuple]
	e         *dataflow.Dataset[EdgeTuple]
	coalesced bool
	lifetime  temporal.Interval
}

// NewVE builds a VE graph from vertex and edge state slices. States
// with empty intervals are dropped. The result is not assumed
// coalesced.
func NewVE(ctx *dataflow.Context, vs []VertexTuple, es []EdgeTuple) *VE {
	keptV := make([]VertexTuple, 0, len(vs))
	for _, v := range vs {
		if !v.Interval.IsEmpty() {
			keptV = append(keptV, v)
		}
	}
	keptE := make([]EdgeTuple, 0, len(es))
	for _, e := range es {
		if !e.Interval.IsEmpty() {
			keptE = append(keptE, e)
		}
	}
	return &VE{
		ctx:      ctx,
		v:        dataflow.Parallelize(ctx, keptV, 0),
		e:        dataflow.Parallelize(ctx, keptE, 0),
		lifetime: lifetimeOf(keptV, keptE),
	}
}

func veFromDatasets(ctx *dataflow.Context, v *dataflow.Dataset[VertexTuple], e *dataflow.Dataset[EdgeTuple], coalesced bool) *VE {
	life := temporal.Empty
	for _, part := range v.Partitions() {
		life = temporal.Span(life, lifetimeOf(part, nil))
	}
	for _, part := range e.Partitions() {
		life = temporal.Span(life, lifetimeOf(nil, part))
	}
	return &VE{ctx: ctx, v: v, e: e, coalesced: coalesced, lifetime: life}
}

// Rep implements TGraph.
func (g *VE) Rep() Representation { return RepVE }

// Context implements TGraph.
func (g *VE) Context() *dataflow.Context { return g.ctx }

// Lifetime implements TGraph.
func (g *VE) Lifetime() temporal.Interval { return g.lifetime }

// Vertices returns the vertex relation.
func (g *VE) Vertices() *dataflow.Dataset[VertexTuple] { return g.v }

// Edges returns the edge relation.
func (g *VE) Edges() *dataflow.Dataset[EdgeTuple] { return g.e }

// VertexStates implements TGraph.
func (g *VE) VertexStates() []VertexTuple { return g.v.Collect() }

// EdgeStates implements TGraph.
func (g *VE) EdgeStates() []EdgeTuple { return g.e.Collect() }

// NumVertices implements TGraph.
func (g *VE) NumVertices() int { return distinctVertexCount(g.VertexStates()) }

// NumEdges implements TGraph.
func (g *VE) NumEdges() int { return distinctEdgeCount(g.EdgeStates()) }

// IsCoalesced implements TGraph.
func (g *VE) IsCoalesced() bool { return g.coalesced }

// Coalesce implements TGraph using the partitioning method: group each
// relation by entity key, sort group states by start time, and fold,
// merging value-equivalent adjacent states (Section 4 "Coalescing").
// Edge states are grouped by id, and sorted by (src, dst, start)
// within it: an edge entity is its EdgeKey, as everywhere else, and the
// entities of one id leave in key order.
func (g *VE) Coalesce() TGraph {
	if g.coalesced {
		return g
	}
	defer obs.StartSpan("coalesce.VE").End()
	v := coalesceEntities(g.v, func(t VertexTuple) VertexID { return t.ID }, cmp.Compare[VertexID], vertexIv, vertexKeyCmp, vertexEq)
	e := coalesceEntities(g.e, func(t EdgeTuple) EdgeID { return t.ID }, cmp.Compare[EdgeID], edgeIv, edgeKeyCmp, edgeEq)
	return &VE{ctx: g.ctx, v: v, e: e, coalesced: true, lifetime: g.lifetime}
}

// coalesceEntities groups states by key and lists each group's states
// coalesced under order — in place, as coalesceGroups does — in one
// job.
func coalesceEntities[K comparable, T any](
	d *dataflow.Dataset[T],
	key func(T) K,
	keyOrder func(a, b K) int,
	ivOf func(*T) *temporal.Interval,
	order func(a, b T) int,
	eq func(a, b T) bool,
) *dataflow.Dataset[T] {
	groups := dataflow.GroupByKey(d, key, keyOrder)
	return dataflow.FlatMapAppend(groups, func(gr dataflow.Group[K, T], out []T) []T {
		return append(out, temporal.Coalesce(gr.Values, ivOf, order, eq)...)
	})
}

// SortedCoalesced coalesces flat states in place and returns them in
// listing order — vertex states by (id, interval), edge states by (id,
// src, dst, interval), ties in input order — with the lifetime they
// span. Coalesce uses the paper's partitioning method (Section 4
// "Coalescing"): group by entity (on VE a shuffle), sort each group by
// time, fold value-equivalent neighbours. A result that is listed sorted
// anyway gets its groups from that one sort, so it is folded there
// instead; on a valid TGraph, where an edge id keeps its endpoints, the
// states are the ones Coalesce reports. Empty states are dropped; the
// results are prefixes of vs and es.
func SortedCoalesced(vs []VertexTuple, es []EdgeTuple) ([]VertexTuple, []EdgeTuple, temporal.Interval) {
	vs = temporal.Coalesce(vs, vertexIv, vertexKeyCmp, vertexEq)
	es = temporal.Coalesce(es, edgeIv, edgeKeyCmp, edgeEq)
	return vs, es, lifetimeOf(vs, es)
}

// CoalescedStates returns what g.Coalesce() reports — representation,
// lifetime, vertex and edge states — with the states in SortedCoalesced
// order, and runs no dataflow job: a coalesced graph's states are only
// sorted, any other graph's are SortedCoalesced (an RG's always, as
// RG.Coalesce converts to VE).
func CoalescedStates(g TGraph) (Representation, temporal.Interval, []VertexTuple, []EdgeTuple) {
	rep, vs, es := g.Rep(), g.VertexStates(), g.EdgeStates()
	if rep == RepRG {
		rep = RepVE
	} else if g.IsCoalesced() {
		slices.SortStableFunc(vs, vertexKeyCmp)
		slices.SortStableFunc(es, edgeKeyCmp)
		return rep, g.Lifetime(), vs, es
	}
	vs, es, life := SortedCoalesced(vs, es)
	return rep, life, vs, es
}
