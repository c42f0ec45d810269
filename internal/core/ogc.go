package core

import (
	"repro/internal/bitset"
	"repro/internal/dataflow"
	"repro/internal/graphx"
	"repro/internal/props"
	"repro/internal/temporal"
)

// OGCEntity is the attribute payload of an OGC vertex or edge: the
// required type label plus a presence bitset over the graph's
// elementary intervals.
type OGCEntity struct {
	Type string
	Bits *bitset.Bitset
}

// OGC is the One-Graph-Columnar representation (Figure 7): topology
// only, with entity presence encoded as bitsets over a shared sequence
// of elementary intervals. It is the most compact representation and
// the fastest for wZoom^T, but it stores no attributes beyond the
// required type label, so it cannot express aZoom^T.
type OGC struct {
	graph     *graphx.Graph[OGCEntity, OGCEntity]
	intervals []temporal.Interval
	lifetime  temporal.Interval
}

// NewOGC builds an OGC graph from flat states: the intervals of all
// states induce the elementary interval sequence, and each entity's
// bitset marks the elementary intervals its states cover. Attribute
// values other than type are discarded.
func NewOGC(ctx *dataflow.Context, vs []VertexTuple, es []EdgeTuple) *OGC {
	ivs := make([]temporal.Interval, 0, len(vs)+len(es))
	for _, v := range vs {
		ivs = append(ivs, v.Interval)
	}
	for _, e := range es {
		ivs = append(ivs, e.Interval)
	}
	elem := temporal.Elementary(ivs)
	return newOGCWithIntervals(ctx, elem, vs, es)
}

// newOGCWithIntervals builds an OGC over a fixed elementary interval
// sequence. A state contributes bit i when it covers intervals[i]
// entirely.
func newOGCWithIntervals(ctx *dataflow.Context, intervals []temporal.Interval, vs []VertexTuple, es []EdgeTuple) *OGC {
	type vkey = VertexID
	vbits := make(map[vkey]*OGCEntity)
	var vorder []vkey
	for _, v := range vs {
		ent, ok := vbits[v.ID]
		if !ok {
			ent = &OGCEntity{Type: v.Props.Type(), Bits: bitset.New(len(intervals))}
			vbits[v.ID] = ent
			vorder = append(vorder, v.ID)
		}
		markCovered(ent.Bits, intervals, v.Interval)
	}
	ebits := make(map[EdgeKey]*OGCEntity)
	var eorder []EdgeKey
	for _, e := range es {
		k := e.Key()
		ent, ok := ebits[k]
		if !ok {
			ent = &OGCEntity{Type: e.Props.Type(), Bits: bitset.New(len(intervals))}
			ebits[k] = ent
			eorder = append(eorder, k)
		}
		markCovered(ent.Bits, intervals, e.Interval)
	}
	gvs := make([]graphx.Vertex[OGCEntity], 0, len(vorder))
	for _, id := range vorder {
		gvs = append(gvs, graphx.Vertex[OGCEntity]{ID: id, Attr: *vbits[id]})
	}
	ges := make([]graphx.Edge[OGCEntity], 0, len(eorder))
	for _, k := range eorder {
		ges = append(ges, graphx.Edge[OGCEntity]{ID: k.ID, Src: k.Src, Dst: k.Dst, Attr: *ebits[k]})
	}
	g := graphx.New(ctx, gvs, ges, graphx.EdgePartition2D{})
	life := temporal.Empty
	for _, iv := range intervals {
		life = temporal.Span(life, iv)
	}
	return &OGC{graph: g, intervals: intervals, lifetime: life}
}

// markCovered sets the bits of all elementary intervals covered by iv.
func markCovered(b *bitset.Bitset, intervals []temporal.Interval, iv temporal.Interval) {
	for i, e := range intervals {
		if iv.Covers(e) {
			b.Set(i)
		}
	}
}

// Rep implements TGraph.
func (g *OGC) Rep() Representation { return RepOGC }

// Context implements TGraph.
func (g *OGC) Context() *dataflow.Context { return g.graph.Context() }

// Lifetime implements TGraph.
func (g *OGC) Lifetime() temporal.Interval { return g.lifetime }

// Intervals returns the shared elementary interval sequence.
func (g *OGC) Intervals() []temporal.Interval { return g.intervals }

// Graph exposes the underlying graphx graph.
func (g *OGC) Graph() *graphx.Graph[OGCEntity, OGCEntity] { return g.graph }

// VertexStates implements TGraph. Reconstructed states carry only the
// type property; runs of consecutive set bits are merged, so the result
// is coalesced.
func (g *OGC) VertexStates() []VertexTuple {
	var out []VertexTuple
	for _, part := range g.graph.Vertices().Partitions() {
		for _, v := range part {
			for _, iv := range bitsToIntervals(v.Attr.Bits, g.intervals) {
				out = append(out, VertexTuple{ID: v.ID, Interval: iv, Props: typeProps(v.Attr.Type)})
			}
		}
	}
	return out
}

// EdgeStates implements TGraph.
func (g *OGC) EdgeStates() []EdgeTuple {
	var out []EdgeTuple
	for _, part := range g.graph.Edges().Partitions() {
		for _, e := range part {
			for _, iv := range bitsToIntervals(e.Attr.Bits, g.intervals) {
				out = append(out, EdgeTuple{ID: e.ID, Src: e.Src, Dst: e.Dst, Interval: iv, Props: typeProps(e.Attr.Type)})
			}
		}
	}
	return out
}

func typeProps(t string) props.Props {
	if t == "" {
		return props.Props{}
	}
	return props.New(props.TypeKey, t)
}

// bitsToIntervals converts a presence bitset to coalesced intervals.
// Consecutive set bits whose elementary intervals meet are merged.
func bitsToIntervals(b *bitset.Bitset, intervals []temporal.Interval) []temporal.Interval {
	var out []temporal.Interval
	for i := 0; i < b.Len(); i++ {
		if !b.Test(i) {
			continue
		}
		iv := intervals[i]
		if len(out) > 0 && out[len(out)-1].Meets(iv) {
			out[len(out)-1] = out[len(out)-1].Union(iv)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// NumVertices implements TGraph.
func (g *OGC) NumVertices() int { return g.graph.NumVertices() }

// NumEdges implements TGraph.
func (g *OGC) NumEdges() int { return g.graph.NumEdges() }

// IsCoalesced implements TGraph. OGC is coalesced by construction:
// bitsets cannot represent value-equivalent adjacent states separately
// (type is constant per entity).
func (g *OGC) IsCoalesced() bool { return true }

// Coalesce implements TGraph (a no-op for OGC).
func (g *OGC) Coalesce() TGraph { return g }

// AZoom implements TGraph. OGC stores no attributes, so attribute-based
// zoom is unsupported, as in the paper.
func (g *OGC) AZoom(AZoomSpec) (TGraph, error) {
	return nil, ErrUnsupported{Rep: RepOGC, Op: "aZoom^T"}
}
