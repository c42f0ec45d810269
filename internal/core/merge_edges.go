package core

import (
	"cmp"
	"slices"

	"repro/internal/props"
	"repro/internal/temporal"
)

// MergeParallelEdges collapses, per time point, all parallel edges
// between the same ordered vertex pair into a single edge, computing
// its properties with the commutative/associative aggregation spec
// (e.g. count the co-author pairs collaborating between two schools,
// or sum their weights). It is the natural companion of aZoom^T:
// attribute-based zoom re-points every input edge individually, which
// preserves multigraph structure; MergeParallelEdges turns that
// multigraph into a weighted simple graph under the same point
// semantics (evaluated per elementary interval, then lazily coalesced).
//
// newType, when non-empty, becomes the merged edges' type property
// (Figure 2 of the paper names the school-level edges "collaborate");
// otherwise the type of the first contributing edge state is kept.
// Edge identity is derived deterministically from the endpoint pair.
// The input's representation is preserved.
func MergeParallelEdges(g TGraph, newType string, agg props.AggSpec) (TGraph, error) {
	if err := agg.Validate(); err != nil {
		return nil, err
	}
	type pairKey struct {
		src, dst VertexID
	}
	groups := make(map[pairKey][]EdgeTuple)
	for _, e := range g.EdgeStates() {
		k := pairKey{src: e.Src, dst: e.Dst}
		groups[k] = append(groups[k], e)
	}
	keys := make([]pairKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b pairKey) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
	})

	var es []EdgeTuple
	for _, k := range keys {
		members := groups[k]
		ivs := make([]temporal.Interval, len(members))
		for i, e := range members {
			ivs[i] = e.Interval
		}
		bounds := temporal.Boundaries(ivs)
		type cell struct {
			agg  props.AggState
			base props.Props
		}
		cells := make(map[temporal.Interval]*cell)
		var order []temporal.Interval
		for _, e := range members {
			for _, frag := range temporal.SplitBy(e.Interval, bounds) {
				c, ok := cells[frag]
				if !ok {
					t := e.Props.Type()
					if newType != "" {
						t = newType
					}
					c = &cell{agg: agg.Init(e.Props), base: props.New(props.TypeKey, t)}
					cells[frag] = c
					order = append(order, frag)
					continue
				}
				c.agg = agg.Merge(c.agg, agg.Init(e.Props))
			}
		}
		temporal.SortIntervals(order)
		h := mix64(uint64(k.src)) ^ mix64(uint64(k.dst)*0x9e3779b97f4a7c15)
		id := EdgeID(int64(h &^ (1 << 63)))
		for _, frag := range order {
			c := cells[frag]
			es = append(es, EdgeTuple{
				ID:  id,
				Src: k.src, Dst: k.dst,
				Interval: frag,
				Props:    agg.Result(c.base, c.agg),
			})
		}
	}
	return preserveRep(g, g.VertexStates(), es)
}
