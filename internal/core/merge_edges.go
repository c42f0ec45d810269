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

	bagg, sc := agg.Bind(), new(groupScratch)
	k := bagg.Len()
	var es []EdgeTuple
	for _, pk := range keys {
		members := groups[pk]
		foldSlots(sc, bagg, members, edgeIv, edgeProps)
		h := mix64(uint64(pk.src)) ^ mix64(uint64(pk.dst)*0x9e3779b97f4a7c15)
		id := EdgeID(int64(h &^ (1 << 63)))
		for j, f := range sc.first {
			if f == 0 {
				continue
			}
			t := newType
			if t == "" {
				t = members[f-1].Props.Type()
			}
			es = append(es, EdgeTuple{
				ID:  id,
				Src: pk.src, Dst: pk.dst,
				Interval: temporal.Interval{Start: sc.pts[j], End: sc.pts[j+1]},
				Props:    bagg.Result(props.New(props.TypeKey, t), sc.acc[j*k:(j+1)*k]),
			})
		}
	}
	return preserveRep(g, g.VertexStates(), es)
}
