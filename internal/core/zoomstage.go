package core

import (
	"cmp"
	"slices"

	"repro/internal/props"
	"repro/internal/temporal"
)

// Zoom stage kernels. Each stage of the zoom operators — Skolem
// grouping and per-group aggregation (aZoom), edge redirection (aZoom),
// window quantifier evaluation and attribute resolution (wZoom), and
// per-entity coalescing — is factored here as a standalone kernel over
// plain slices. The batch dataflow pipelines in azoom.go / wzoom.go
// call these kernels from their FlatMap bodies, and the incremental
// maintenance engine (internal/incr) calls the same kernels per
// affected Skolem group or tumbling window, so the two paths cannot
// drift apart: a materialized view patch replays exactly the batch
// stage over the touched group.
//
// Determinism contract: every kernel is a pure function of its input
// slice, and all built-in aggregates (props.AggKind) are commutative
// and associative — AggAny keeps the *smallest* value, not the first —
// so re-reducing a group from differently-ordered state lists yields
// identical bytes. The only caveat is float addition (AggSum/AggAvg
// over non-integral values), where accumulation order can differ in
// the last ulp; the serving path sidesteps this because both the batch
// rebuild and the view maintain states in append order.

// AZState is one contributing input state of a Skolem group: the
// original property set of the entity over one interval. It is the
// exported form of the record azoomVerticesDataflow groups by new
// identity.
type AZState struct {
	// Interval is the state's validity interval.
	Interval temporal.Interval
	// Props is the entity's original (pre-zoom) property set.
	Props props.Props
}

// AZoomGroup reduces one Skolem group: given every input vertex state
// mapped to the new identity newID, it aligns the states to the
// group's elementary intervals and folds identity-equivalent states
// per elementary interval with f_agg (Algorithm 2 lines 5-12). The
// output states are sorted by interval and uncoalesced, matching the
// batch pipeline's per-group output exactly.
func AZoomGroup(spec AZoomSpec, agg props.BoundAgg, newID VertexID, states []AZState) []VertexTuple {
	if len(states) == 0 {
		return nil
	}
	ivs := make([]temporal.Interval, len(states))
	for i, s := range states {
		ivs[i] = s.Interval
	}
	bounds := temporal.Boundaries(ivs)
	// NewProps derives the new vertex's identifying properties from
	// its Skolem identity, so one call covers the whole group.
	base := spec.newProps(newID, states[0].Props)
	type frag struct {
		iv  temporal.Interval
		agg props.AggState
	}
	idx := make(map[temporal.Interval]int)
	var frags []frag
	for _, s := range states {
		for _, fr := range temporal.SplitBy(s.Interval, bounds) {
			i, ok := idx[fr]
			if !ok {
				idx[fr] = len(frags)
				frags = append(frags, frag{iv: fr, agg: agg.Init(s.Props)})
				continue
			}
			agg.Accumulate(frags[i].agg, s.Props)
		}
	}
	slices.SortStableFunc(frags, func(a, b frag) int { return a.iv.Compare(b.iv) })
	out := make([]VertexTuple, 0, len(frags))
	for _, f := range frags {
		out = append(out, VertexTuple{ID: newID, Interval: f.iv, Props: agg.Result(base, f.agg)})
	}
	return out
}

// redirectOne redirects a single (edge state, src state, dst state)
// triple: the output interval is the three-way intersection, the
// endpoints are re-pointed at the Skolem identities, and the edge id
// is re-derived through the edge Skolem function. ok=false when the
// intersection is empty or either endpoint's Skolem function declines.
// This scalar kernel is shared by the VE join pipeline, the OG routing
// table, and RedirectEdge.
func redirectOne(spec AZoomSpec, esk EdgeSkolemFunc, et EdgeTuple, srcState, dstState AZState) (EdgeTuple, bool) {
	iv := et.Interval.Intersect(srcState.Interval).Intersect(dstState.Interval)
	if iv.IsEmpty() {
		return EdgeTuple{}, false
	}
	s1, ok1 := spec.Skolem(et.Src, srcState.Props)
	s2, ok2 := spec.Skolem(et.Dst, dstState.Props)
	if !ok1 || !ok2 {
		return EdgeTuple{}, false
	}
	return EdgeTuple{
		ID:       esk(et.ID, s1, s2),
		Src:      s1,
		Dst:      s2,
		Interval: iv,
		Props:    et.Props,
	}, true
}

// RedirectEdge redirects one input edge state against the full state
// lists of its two endpoints (Algorithm 3's recompute_history for a
// single edge state): every (src state, dst state) pair with a
// non-empty three-way intersection yields one output state re-pointed
// at the Skolem identities. The incremental engine calls this per
// affected input edge; the OG batch pipeline calls it per edge history
// item.
func RedirectEdge(spec AZoomSpec, esk EdgeSkolemFunc, et EdgeTuple, src, dst []AZState) []EdgeTuple {
	var out []EdgeTuple
	for _, sh := range src {
		if et.Interval.Intersect(sh.Interval).IsEmpty() {
			continue
		}
		for _, dh := range dst {
			if t, ok := redirectOne(spec, esk, et, sh, dh); ok {
				out = append(out, t)
			}
		}
	}
	return out
}

// WZState is one input state clipped to a window: the window, the
// state's original start (for first/last resolution ordering), the
// duration of the window it covers, and its property set.
type WZState struct {
	// Win is the index of the window the state was clipped to.
	Win int
	// Start is the original state's start time; resolution orders
	// states by it.
	Start temporal.Time
	// Covered is how much of the window this state covers.
	Covered temporal.Time
	// Props is the state's property set.
	Props props.Props
}

// WZoomReduce evaluates one (entity, window) group: it sums the
// covered durations, applies the existence quantifier against the
// window duration, and resolves a representative property set from the
// surviving states (sorted by original start, so first/last/any are
// deterministic). ok=false when the quantifier rejects the group. The
// resolve spec arrives pre-bound so the hot loop does no label
// interning.
func WZoomReduce(states []WZState, window temporal.Window, q temporal.Quantifier, r props.BoundResolve) (props.Props, bool) {
	var covered temporal.Time
	for _, s := range states {
		covered += s.Covered
	}
	if !q.Satisfied(covered, window.Interval.Duration()) {
		return props.Props{}, false
	}
	if len(states) == 1 {
		// Single-state window: resolution is the identity, and Props is
		// immutable, so the state's property set is returned as-is.
		return states[0].Props, true
	}
	slices.SortStableFunc(states, func(a, b WZState) int { return cmp.Compare(a.Start, b.Start) })
	ps := make([]props.Props, len(states))
	for i, s := range states {
		ps[i] = s.Props
	}
	return r.Apply(ps), true
}

// wzoomRun is the per-entity kernel of wZoom^T: every state of the run
// (one entity's coalesced states) is clipped to the windows it
// overlaps, and each touched window, in window order, is reduced with
// WZoomReduce; emit builds the output record of a window that passes,
// and out grows at most once, by the number of touched windows. A
// coalesced run already yields its clipped states in window order —
// its states are sorted and disjoint — so the sort is skipped; any
// other run is put in window order first, stably, so that a window
// sees its states in run order either way. scratch is the clipped-state
// buffer, handed back for the next entity.
func wzoomRun[T, O any](
	run []T,
	ivOf func(*T) *temporal.Interval,
	propsOf func(*T) props.Props,
	windows []temporal.Window,
	q temporal.Quantifier,
	r props.BoundResolve,
	scratch []WZState,
	out []O,
	emit func(temporal.Interval, props.Props) O,
) ([]O, []WZState) {
	items := scratch[:0]
	inOrder := true
	for i := range run {
		iv := *ivOf(&run[i])
		for _, w := range temporal.OverlappingWindows(windows, iv) {
			if len(items) > 0 && w.Index < items[len(items)-1].Win {
				inOrder = false
			}
			items = append(items, WZState{
				Win:     w.Index,
				Start:   iv.Start,
				Covered: iv.Intersect(w.Interval).Duration(),
				Props:   propsOf(&run[i]),
			})
		}
	}
	if !inOrder {
		slices.SortStableFunc(items, func(a, b WZState) int { return cmp.Compare(a.Win, b.Win) })
	}
	touched := 0
	for i := range items {
		if i == 0 || items[i].Win != items[i-1].Win {
			touched++
		}
	}
	out = slices.Grow(out, touched)
	for lo := 0; lo < len(items); {
		hi := lo + 1
		for hi < len(items) && items[hi].Win == items[lo].Win {
			hi++
		}
		w := windows[items[lo].Win]
		if p, ok := WZoomReduce(items[lo:hi], w, q, r); ok {
			out = append(out, emit(w.Interval, p))
		}
		lo = hi
	}
	return out, items
}

// WZoomEntity recomputes one entity's full windowed history from its
// coalesced input history. This is the per-entity unit of Algorithm 6
// (OG's narrow map), the granule the incremental engine re-runs when a
// delta touches an entity, and — over a grouped run of tuples — what VE
// evaluates after its one shuffle (see wzoomRun).
func WZoomEntity(h []HistoryItem, windows []temporal.Window, q temporal.Quantifier, r props.BoundResolve) []HistoryItem {
	out, _ := wzoomRun(h, historyIv, historyProps, windows, q, r, nil, []HistoryItem(nil),
		func(iv temporal.Interval, p props.Props) HistoryItem { return HistoryItem{Interval: iv, Props: p} })
	return out
}

// NormalizeHistory sorts a history array by interval and merges
// adjacent value-equivalent items — the per-entity coalescing stage.
// The incremental engine normalizes an entity's base states with it
// before re-running WZoomEntity, matching the representation-level
// Coalesce the batch path applies. It works in place (see
// temporal.Coalesce): h is reordered and the result is a prefix of it,
// so callers pass a copy of any history they retain.
func NormalizeHistory(h []HistoryItem) []HistoryItem {
	return temporal.Coalesce(h, historyIv, historyCmp, historyEq)
}

// BoundEdgeSkolem returns the spec's edge Skolem function with the
// default (hash of original id and both new endpoints) substituted
// when none is set — the exported form of the binding the batch
// pipelines perform internally, for callers that invoke RedirectEdge
// directly.
func (s AZoomSpec) BoundEdgeSkolem() EdgeSkolemFunc { return s.edgeSkolem() }

// ZoomChangePoints returns the sorted interior interval boundaries of
// the given states — the change points that feed change-based window
// specs. Exported for the incremental engine, which must re-derive the
// window relation after a delta batch to detect window-boundary
// shifts.
func ZoomChangePoints(vs []VertexTuple, es []EdgeTuple) []temporal.Time {
	return changePointsOf(vs, es)
}
