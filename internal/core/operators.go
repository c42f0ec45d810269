package core

import (
	"slices"

	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Companion TGA operators. The paper implements the two zoom operators
// of the TGraph algebra (TGA, Moffitt & Stoyanovich, DBPL 2017) and
// names extending the system with further operations as future work;
// this file implements the rest of the algebra's unary and binary
// operators under the same point semantics: trim (temporal slice),
// subgraph (selection), map (attribute transformation), and
// union/intersection/difference. Each preserves the input's physical
// representation and leaves its output uncoalesced (lazy coalescing,
// as with aZoom^T) — except Trim on VE, which cannot undo coalescing
// and says so.

// preserveRep converts states back to g's representation.
func preserveRep(g TGraph, vs []VertexTuple, es []EdgeTuple) (TGraph, error) {
	ve := NewVE(g.Context(), vs, es)
	if g.Rep() == RepVE {
		return ve, nil
	}
	return Convert(ve, g.Rep())
}

// Trim restricts the graph to the given window, clipping every state —
// the temporal-slice operator. States outside the window disappear. On
// VE it is two narrow passes over the partitions, and the result stays
// coalesced if the input was: clipping moves no state towards another,
// so it cannot make two value-equivalent states adjacent. The other
// representations go through the flat-state interchange form.
func Trim(g TGraph, window temporal.Interval) (TGraph, error) {
	if ve, ok := g.(*VE); ok {
		return runGuarded(ve.ctx, func() (TGraph, error) {
			v := dataflow.FilterMap(ve.v, func(t VertexTuple) (VertexTuple, bool) {
				t.Interval = t.Interval.Intersect(window)
				return t, !t.Interval.IsEmpty()
			})
			e := dataflow.FilterMap(ve.e, func(t EdgeTuple) (EdgeTuple, bool) {
				t.Interval = t.Interval.Intersect(window)
				return t, !t.Interval.IsEmpty()
			})
			return veFromDatasets(ve.ctx, v, e, ve.coalesced), nil
		})
	}
	var vs []VertexTuple
	for _, v := range g.VertexStates() {
		iv := v.Interval.Intersect(window)
		if iv.IsEmpty() {
			continue
		}
		v.Interval = iv
		vs = append(vs, v)
	}
	var es []EdgeTuple
	for _, e := range g.EdgeStates() {
		iv := e.Interval.Intersect(window)
		if iv.IsEmpty() {
			continue
		}
		e.Interval = iv
		es = append(es, e)
	}
	return preserveRep(g, vs, es)
}

// Subgraph selects the vertex states satisfying vPred and the edge
// states satisfying ePred, then restores validity: every surviving edge
// state is clipped to the periods during which both endpoints survive
// (point-semantics selection removes dangling edges point-wise, not
// wholesale). nil predicates keep everything.
func Subgraph(g TGraph, vPred func(VertexTuple) bool, ePred func(EdgeTuple) bool) (TGraph, error) {
	var vs []VertexTuple
	presence := make(map[VertexID][]temporal.Interval)
	for _, v := range g.VertexStates() {
		if vPred != nil && !vPred(v) {
			continue
		}
		vs = append(vs, v)
		presence[v.ID] = append(presence[v.ID], v.Interval)
	}
	var es []EdgeTuple
	for _, e := range g.EdgeStates() {
		if ePred != nil && !ePred(e) {
			continue
		}
		alive := clipToPresence(e.Interval, presence[e.Src])
		for _, iv := range alive {
			for _, iv2 := range clipToPresence(iv, presence[e.Dst]) {
				ne := e
				ne.Interval = iv2
				es = append(es, ne)
			}
		}
	}
	return preserveRep(g, vs, es)
}

// clipToPresence intersects iv with each presence interval.
func clipToPresence(iv temporal.Interval, presence []temporal.Interval) []temporal.Interval {
	var out []temporal.Interval
	for _, p := range temporal.CoalesceIntervals(presence) {
		x := iv.Intersect(p)
		if !x.IsEmpty() {
			out = append(out, x)
		}
	}
	return out
}

// MapProps transforms every vertex and edge state's property set — the
// algebra's map operator. nil functions leave the corresponding
// relation unchanged. Transformations must keep the type property
// non-empty for the output to remain a valid TGraph.
func MapProps(g TGraph, vf func(VertexTuple) props.Props, ef func(EdgeTuple) props.Props) (TGraph, error) {
	vs := g.VertexStates()
	if vf != nil {
		for i := range vs {
			vs[i].Props = vf(vs[i])
		}
	}
	es := g.EdgeStates()
	if ef != nil {
		for i := range es {
			es[i].Props = ef(es[i])
		}
	}
	return preserveRep(g, vs, es)
}

// setOpKind selects the binary operator semantics.
type setOpKind int

const (
	opUnion setOpKind = iota
	opIntersect
	opDifference
)

// Union computes the point-wise union of two TGraphs sharing an
// identifier space: an entity exists at time t in the result iff it
// exists at t in either input. Where both inputs define an entity's
// properties at the same point, the left graph wins.
func Union(a, b TGraph) (TGraph, error) { return setOp(a, b, opUnion) }

// Intersection keeps each entity exactly at the points where it exists
// in both inputs, with the left graph's properties.
func Intersection(a, b TGraph) (TGraph, error) { return setOp(a, b, opIntersect) }

// Difference keeps each entity of the left graph at the points where
// it does not exist in the right graph. Edges whose endpoints lose
// presence are clipped so the result stays valid.
func Difference(a, b TGraph) (TGraph, error) { return setOp(a, b, opDifference) }

// side tags a state with its origin for the alignment sweep.
type sideState struct {
	left  bool
	props props.Props
}

func setOp(a, b TGraph, kind setOpKind) (TGraph, error) {
	vs := combineStates(
		vertexKeyed(a.VertexStates()), vertexKeyed(b.VertexStates()), kind)
	var outV []VertexTuple
	presence := make(map[VertexID][]temporal.Interval)
	for _, s := range vs {
		v := VertexTuple{ID: s.key.(VertexID), Interval: s.iv, Props: s.props}
		outV = append(outV, v)
		presence[v.ID] = append(presence[v.ID], v.Interval)
	}
	es := combineStates(
		edgeKeyed(a.EdgeStates()), edgeKeyed(b.EdgeStates()), kind)
	var outE []EdgeTuple
	for _, s := range es {
		k := s.key.(EdgeKey)
		// Keep the result valid: clip each edge state to the presence
		// of both endpoints (difference can remove endpoints that edges
		// of the left graph still reference).
		for _, iv := range clipToPresence(s.iv, presence[k.Src]) {
			for _, iv2 := range clipToPresence(iv, presence[k.Dst]) {
				outE = append(outE, EdgeTuple{ID: k.ID, Src: k.Src, Dst: k.Dst, Interval: iv2, Props: s.props})
			}
		}
	}
	return preserveRep(a, outV, outE)
}

type keyedState struct {
	key   any
	iv    temporal.Interval
	props props.Props
}

func vertexKeyed(vs []VertexTuple) map[any][]temporal.Stated[sideState] {
	out := make(map[any][]temporal.Stated[sideState])
	for _, v := range vs {
		out[any(v.ID)] = append(out[any(v.ID)], temporal.Stated[sideState]{Interval: v.Interval, Value: sideState{props: v.Props}})
	}
	return out
}

func edgeKeyed(es []EdgeTuple) map[any][]temporal.Stated[sideState] {
	out := make(map[any][]temporal.Stated[sideState])
	for _, e := range es {
		k := any(e.Key())
		out[k] = append(out[k], temporal.Stated[sideState]{Interval: e.Interval, Value: sideState{props: e.Props}})
	}
	return out
}

// combineStates aligns the left and right states of every entity and
// applies the set-operation decision per elementary interval.
func combineStates(left, right map[any][]temporal.Stated[sideState], kind setOpKind) []keyedState {
	keys := make(map[any]struct{}, len(left)+len(right))
	for k := range left {
		keys[k] = struct{}{}
	}
	for k := range right {
		keys[k] = struct{}{}
	}
	// Per slot, which sides are present; left's props are preferred.
	type cell struct {
		l, r  bool
		props props.Props
	}
	var (
		out   []keyedState
		all   []temporal.Stated[sideState]
		pts   []temporal.Time
		cells []cell
	)
	for k := range keys {
		all = all[:0]
		for _, s := range left[k] {
			s.Value.left = true
			all = append(all, s)
		}
		all = append(all, right[k]...)
		pts = temporal.BoundariesOf(pts, all, func(s *temporal.Stated[sideState]) *temporal.Interval { return &s.Interval })
		cells = zeroed(cells, max(len(pts)-1, 0))
		for _, s := range all {
			if s.Interval.IsEmpty() {
				continue
			}
			for j, _ := slices.BinarySearch(pts, s.Interval.Start); pts[j] < s.Interval.End; j++ {
				c := &cells[j]
				if s.Value.left || !c.l && !c.r {
					c.props = s.Value.props
				}
				if s.Value.left {
					c.l = true
				} else {
					c.r = true
				}
			}
		}
		for j, c := range cells {
			keep := false
			switch kind {
			case opUnion:
				keep = c.l || c.r
			case opIntersect:
				keep = c.l && c.r
			case opDifference:
				keep = c.l && !c.r
			}
			if keep {
				out = append(out, keyedState{key: k, iv: temporal.Interval{Start: pts[j], End: pts[j+1]}, props: c.props})
			}
		}
	}
	// Deterministic output order (map iteration is random).
	slices.SortFunc(out, func(a, b keyedState) int { return a.iv.Compare(b.iv) })
	return out
}
