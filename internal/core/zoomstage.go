package core

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"repro/internal/graphx"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Zoom stage kernels. Each stage of the zoom operators — Skolem
// grouping and per-group aggregation (aZoom), edge redirection (aZoom),
// window quantifier evaluation and attribute resolution (wZoom), and
// per-entity coalescing — is factored here as a standalone kernel over
// plain slices. The batch dataflow pipelines in azoom.go / wzoom.go
// call these kernels from their FlatMap bodies, and the incremental
// maintenance engine (internal/incr) and the shard workers
// (internal/shard) call the same kernels per affected Skolem group or
// entity — for wZoom through the per-entity partial Histories — so the
// paths cannot drift apart: a materialized view patch replays exactly
// the batch stage over the touched group.
//
// Determinism contract: every kernel is a pure function of its input
// slice, and all built-in aggregates (props.AggKind) are commutative
// and associative — AggAny keeps the *smallest* value, not the first —
// so re-reducing a group from differently-ordered state lists yields
// identical bytes. The only caveat is float addition (AggSum/AggAvg
// over non-integral values), where accumulation order can differ in
// the last ulp; the serving path sidesteps this because both the batch
// rebuild and the view maintain states in append order.

// AZoomGroup reduces one Skolem group: given every input vertex state
// mapped to the new identity newID, each with its original (pre-zoom)
// property set, it aligns the states to the group's elementary
// intervals — the temporal splitter cuts every state at every boundary
// point of the group — and folds the fragments that share an
// elementary interval with f_agg (Algorithm 2 lines 5-12). The output
// states are sorted by interval and uncoalesced, matching the batch
// pipeline's per-group output exactly.
//
// It does so without materialising a fragment: foldSlots sweeps the
// states over the group's sorted boundary points, and each output
// state is one slot the states cover. Working memory is pooled; the
// result costs one slice and one property set per output state.
func AZoomGroup(spec AZoomSpec, agg props.BoundAgg, newID VertexID, states []HistoryItem) []VertexTuple {
	sc := groupScratchPool.Get().(*groupScratch)
	out := sc.azoomGroup(spec, agg, newID, states)
	groupScratchPool.Put(sc)
	return out
}

// groupScratch is the working memory of foldSlots and, in the dataflow
// pipeline, the staged states of one Skolem group.
type groupScratch struct {
	pts   []temporal.Time // the slot index: slot j is [pts[j], pts[j+1])
	acc   props.AggState  // agg.Len() accumulators per slot
	first []int           // per slot, 1 + the first covering state, or 0
	hist  []HistoryItem
}

var groupScratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

func (sc *groupScratch) azoomGroup(spec AZoomSpec, agg props.BoundAgg, newID VertexID, states []HistoryItem) []VertexTuple {
	if len(states) == 0 {
		return nil
	}
	hit := foldSlots(sc, agg, states, historyIv, historyProps)
	// NewProps derives the new vertex's identifying properties from
	// its Skolem identity, so one call covers the whole group.
	base := spec.newProps(newID, states[0].Props)
	out := make([]VertexTuple, 0, hit)
	k := agg.Len()
	for j, f := range sc.first {
		if f != 0 {
			iv := temporal.Interval{Start: sc.pts[j], End: sc.pts[j+1]}
			out = append(out, VertexTuple{ID: newID, Interval: iv, Props: agg.Result(base, sc.acc[j*k:(j+1)*k])})
		}
	}
	return out
}

// foldSlots is the temporal splitter and f_agg of one group in one
// sweep: it indexes the group's boundary points, then accumulates
// every state, in input order, into each slot its interval covers —
// so every slot folds in input order, and float sums keep their last
// ulp. Accumulating into a zeroed accumulator is Init. It returns the
// number of slots covered.
func foldSlots[T any](sc *groupScratch, agg props.BoundAgg, states []T, iv func(*T) *temporal.Interval, p func(*T) props.Props) (hit int) {
	sc.pts = temporal.BoundariesOf(sc.pts, states, iv)
	n, k := max(len(sc.pts)-1, 0), agg.Len()
	sc.acc, sc.first = zeroed(sc.acc, n*k), zeroed(sc.first, n)
	for i := range states {
		r := *iv(&states[i])
		if r.IsEmpty() {
			continue
		}
		for j, _ := slices.BinarySearch(sc.pts, r.Start); sc.pts[j] < r.End; j++ {
			if sc.first[j] == 0 {
				sc.first[j] = i + 1
				hit++
			}
			agg.Accumulate(sc.acc[j*k:(j+1)*k], p(&states[i]))
		}
	}
	return hit
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RedirectEdge redirects every state h holds of input edge k against
// the full histories of its two endpoints (Algorithm 3's
// recompute_history): every (edge state, src state, dst state) triple
// with a non-empty three-way intersection yields one output state over
// that intersection, its endpoints re-pointed at their Skolem
// identities and its id re-derived by the edge Skolem function esk,
// appended to out. A triple an endpoint's Skolem function declines
// yields nothing. It is the one redirect kernel: VE and OG run it per
// edge against a gathered historyIndex, the incremental aZoom view and
// the shard workers against the histories they hold — shared, not
// copied.
func RedirectEdge(spec AZoomSpec, esk EdgeSkolemFunc, k EdgeKey, h, src, dst []HistoryItem, out []EdgeTuple) []EdgeTuple {
	for _, eh := range h {
		for _, sh := range src {
			siv := eh.Interval.Intersect(sh.Interval)
			if siv.IsEmpty() {
				continue
			}
			s1, ok := spec.Skolem(k.Src, sh.Props)
			if !ok {
				continue
			}
			for _, dh := range dst {
				iv := siv.Intersect(dh.Interval)
				if iv.IsEmpty() {
					continue
				}
				if s2, ok := spec.Skolem(k.Dst, dh.Props); ok {
					out = append(out, EdgeTuple{ID: esk(k.ID, s1, s2), Src: s1, Dst: s2, Interval: iv, Props: eh.Props})
				}
			}
		}
	}
	return out
}

// historyIndex is a vertex relation gathered for the vertex–edge steps
// of the VE and OG drivers — aZoom^T's edge redirection and wZoom^T's
// dangling-edge rule: one record per vertex, sorted by id, holding the
// vertex's history. Each edge partition probes it by binary search, as
// GraphX ships vertex attributes to the edge partitions, instead of
// shuffling the edges to the vertices.
type historyIndex []graphx.Vertex[[]HistoryItem]

// indexHistories gathers OG vertex records, n in all, one per vertex:
// the index shares their history arrays and copies no state.
func indexHistories(parts [][]graphx.Vertex[[]HistoryItem], n int) historyIndex {
	x := make(historyIndex, 0, n)
	for _, part := range parts {
		x = append(x, part...)
	}
	slices.SortFunc(x, func(a, b graphx.Vertex[[]HistoryItem]) int { return cmp.Compare(a.ID, b.ID) })
	return x
}

// indexTuples gathers n flat vertex states into one arena, grouped by
// id: a vertex's history holds its states in input order (partition,
// then position), as a stable sort by id leaves them.
func indexTuples(parts [][]VertexTuple, n int) historyIndex {
	type ref struct {
		id       VertexID
		src, pos int32
	}
	refs := make([]ref, 0, n)
	for src, part := range parts {
		for pos, t := range part {
			refs = append(refs, ref{t.ID, int32(src), int32(pos)})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.src, b.src), cmp.Compare(a.pos, b.pos))
	})
	arena := make([]HistoryItem, len(refs))
	ids := 0
	for i, r := range refs {
		t := parts[r.src][r.pos]
		arena[i] = HistoryItem{Interval: t.Interval, Props: t.Props}
		if i == 0 || r.id != refs[i-1].id {
			ids++
		}
	}
	x := make(historyIndex, 0, ids)
	lo := 0
	for i, r := range refs {
		if i+1 == len(refs) || refs[i+1].id != r.id {
			x = append(x, graphx.Vertex[[]HistoryItem]{ID: r.id, Attr: arena[lo : i+1 : i+1]})
			lo = i + 1
		}
	}
	return x
}

// of returns the history of vertex id, or nil if the index has none.
func (x historyIndex) of(id VertexID) []HistoryItem {
	i, ok := slices.BinarySearchFunc(x, id, func(v graphx.Vertex[[]HistoryItem], id VertexID) int { return cmp.Compare(v.ID, id) })
	if !ok {
		return nil
	}
	return x[i].Attr
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
// (OG's narrow map); Histories.WZoom runs the same kernel over every
// entity a view or shard holds, and VE over a grouped run of tuples
// after its one shuffle (see wzoomRun).
func WZoomEntity(h []HistoryItem, windows []temporal.Window, q temporal.Quantifier, r props.BoundResolve) []HistoryItem {
	out, _ := wzoomRun(h, historyIv, historyProps, windows, q, r, nil, []HistoryItem(nil), historyItem)
	return out
}

// historyItem is wzoomRun's emit for history outputs.
func historyItem(iv temporal.Interval, p props.Props) HistoryItem {
	return HistoryItem{Interval: iv, Props: p}
}

// keepsEdgeState is wZoom^T's dangling-edge rule, which applies when
// the vertex quantifier is more restrictive than the edge quantifier:
// an edge state over iv survives only if a state of its source and a
// state of its destination each cover iv. src and dst are the
// endpoints' windowed histories: VE and OG find them in a historyIndex,
// Histories.WZoomFinish in its maps.
func keepsEdgeState(iv temporal.Interval, src, dst []HistoryItem) bool {
	covers := func(h []HistoryItem) bool {
		for _, it := range h {
			if it.Interval.Covers(iv) {
				return true
			}
		}
		return false
	}
	return covers(src) && covers(dst)
}

// BoundEdgeSkolem returns the spec's edge Skolem function with the
// default (hash of original id and both new endpoints) substituted
// when none is set — the exported form of the binding the batch
// pipelines perform internally, for callers that invoke RedirectEdge
// directly.
func (s AZoomSpec) BoundEdgeSkolem() EdgeSkolemFunc { return s.edgeSkolem() }

// Histories is the map-based per-entity partial of the zoom operators:
// every vertex's and every edge entity's states, in arrival order. The
// incremental views keep their base states and their windowed outputs
// in it, and a shard worker the masters and edges it owns; the methods
// are the per-entity wZoom^T steps both evaluate — window every entity,
// collect the change points, flatten the outputs through the
// dangling-edge rule. Histories only grow by append and no method
// writes to one: a history that must be coalesced first is folded on a
// copy, so holders may share the slices.
type Histories struct {
	V map[VertexID][]HistoryItem
	E map[EdgeKey][]HistoryItem
}

// NewHistories returns an empty partial.
func NewHistories() Histories {
	return Histories{V: make(map[VertexID][]HistoryItem), E: make(map[EdgeKey][]HistoryItem)}
}

// HistoriesOf groups flat states by entity, keeping their order.
func HistoriesOf(vs []VertexTuple, es []EdgeTuple) Histories {
	h := NewHistories()
	for _, t := range vs {
		h.V[t.ID] = append(h.V[t.ID], HistoryItem{Interval: t.Interval, Props: t.Props})
	}
	for _, t := range es {
		k := t.Key()
		h.E[k] = append(h.E[k], HistoryItem{Interval: t.Interval, Props: t.Props})
	}
	return h
}

// cancelStride is how many entities WZoom evaluates between checks of
// its context; the kernels themselves are context-free.
const cancelStride = 512

// WZoom evaluates the window relation over every entity: each history
// is coalesced, as the batch path coalesces its input, and windowed by
// the kernel OG runs per entity (WZoomEntity). Entities no window
// retains are left out. Dangling edges are kept — their rule needs
// every vertex's output, which a partial may not hold; WZoomFinish
// applies it once the outputs are merged. WZoom returns ctx's error if
// ctx ends before it is done.
func (h Histories) WZoom(ctx context.Context, spec WZoomSpec, windows []temporal.Window) (Histories, error) {
	out := Histories{
		V: make(map[VertexID][]HistoryItem, len(h.V)),
		E: make(map[EdgeKey][]HistoryItem, len(h.E)),
	}
	if err := wzoomEntities(ctx, h.V, out.V, windows, spec.VQuant, spec.VResolve.Bind()); err != nil {
		return Histories{}, err
	}
	if err := wzoomEntities(ctx, h.E, out.E, windows, spec.EQuant, spec.EResolve.Bind()); err != nil {
		return Histories{}, err
	}
	return out, nil
}

// wzoomEntities windows every history of in into out, with one kernel
// scratch for all of them.
func wzoomEntities[K comparable](ctx context.Context, in, out map[K][]HistoryItem, windows []temporal.Window, q temporal.Quantifier, r props.BoundResolve) error {
	var scratch []WZState
	n := 0
	for k, h := range in {
		if n%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n++
		var o []HistoryItem
		o, scratch = wzoomRun(coalesceHistory(h), historyIv, historyProps, windows, q, r, scratch, nil, historyItem)
		if len(o) > 0 {
			out[k] = o
		}
	}
	return nil
}

// ChangePoints returns the sorted boundary points of every entity's
// coalesced history: the change points a change-based window spec
// derives its windows from, taken after coalescing as the batch path
// takes them. Boundary sets union losslessly, so the change points of
// several partials together are the union of theirs.
func (h Histories) ChangePoints() []temporal.Time {
	return temporal.Boundaries(coalescedIntervals(coalescedIntervals(nil, h.V), h.E))
}

// coalescedIntervals appends the intervals of every coalesced history
// of m to ivs.
func coalescedIntervals[K comparable](ivs []temporal.Interval, m map[K][]HistoryItem) []temporal.Interval {
	for _, h := range m {
		for _, it := range coalesceHistory(h) {
			ivs = append(ivs, it.Interval)
		}
	}
	return ivs
}

// WZoomFinish flattens windowed outputs — WZoom's result, or the union
// of several partials' disjoint results — into the state tuples wZoom^T
// emits. When the vertex quantifier is more restrictive than the edge
// quantifier it removes dangling edges by the batch drivers' rule
// (keepsEdgeState), against the vertex histories it holds. Entities
// come out in key order, so a response's sort (SortedCoalesced) finds
// them sorted.
func (h Histories) WZoomFinish(spec WZoomSpec) ([]VertexTuple, []EdgeTuple) {
	vs := make([]VertexTuple, 0, statesIn(h.V))
	for _, id := range sortedKeys(h.V, cmp.Compare[VertexID]) {
		for _, it := range h.V[id] {
			vs = append(vs, VertexTuple{ID: id, Interval: it.Interval, Props: it.Props})
		}
	}
	dangling := spec.VQuant.MoreRestrictiveThan(spec.EQuant)
	es := make([]EdgeTuple, 0, statesIn(h.E))
	for _, k := range sortedKeys(h.E, EdgeKey.compare) {
		src, dst := h.V[k.Src], h.V[k.Dst]
		for _, it := range h.E[k] {
			if !dangling || keepsEdgeState(it.Interval, src, dst) {
				es = append(es, k.state(it))
			}
		}
	}
	return vs, es
}

// sortedKeys returns the keys of m in cmp order.
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

// statesIn counts the states of every history of m.
func statesIn[K comparable](m map[K][]HistoryItem) int {
	n := 0
	for _, h := range m {
		n += len(h)
	}
	return n
}
