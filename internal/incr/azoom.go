package incr

import (
	"maps"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/storage/wal"
)

// AZoomView is a materialized aZoom^T result. It indexes the input
// vertex states by Skolem group and by vertex id, and the input edge
// states by edge identity with a vertex→incident-edge index, so a
// delta maps directly to the groups whose outputs it can change:
//
//   - vertex delta → the new state's Skolem group (re-reduced whole,
//     because a new state introduces new elementary-interval
//     boundaries inside the group) plus the redirected outputs of
//     every edge incident to the vertex;
//   - edge delta → that input edge's redirected outputs only.
//
// aZoom^T decomposes fully under the insert-only delta model — all
// built-in aggregates are commutative and associative (props.AggKind;
// AggAny keeps the smallest value) — so the view never needs a full
// fallback; AggCustom is refused at construction (ErrUnsupported)
// because the view cannot verify a user combine function.
type AZoomView struct {
	mu   sync.RWMutex
	spec core.AZoomSpec
	agg  props.BoundAgg
	esk  core.EdgeSkolemFunc
	opts Options

	// Base-state indexes (append order preserved: graph iteration
	// order at build, then WAL order).
	base     core.Histories                       // input entity → its states
	groups   map[core.VertexID][]core.HistoryItem // Skolem group → contributing states
	incident map[core.VertexID][]core.EdgeKey     // vertex → incident input edges

	// Materialized outputs, uncoalesced (aZoom^T leaves its output
	// uncoalesced; the serving layer coalesces on encode).
	outV map[core.VertexID][]core.VertexTuple // per Skolem group
	outE map[core.EdgeKey][]core.EdgeTuple    // per input edge
}

// NewAZoomView builds the view from the graph's current states — one
// batch-zoom-equivalent pass over the base data, after which Apply
// patches incrementally. The graph's states must reflect every delta
// already applied; subsequent deltas go through Apply.
func NewAZoomView(g core.TGraph, spec core.AZoomSpec, opts Options) (*AZoomView, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for _, f := range spec.Agg.Fields {
		if f.Kind == props.AggCustom {
			return nil, ErrUnsupported
		}
	}
	vs := g.VertexStates()
	v := &AZoomView{
		spec:     spec,
		agg:      spec.Agg.Bind(),
		esk:      spec.BoundEdgeSkolem(),
		opts:     opts,
		base:     core.HistoriesOf(vs, g.EdgeStates()),
		groups:   make(map[core.VertexID][]core.HistoryItem),
		incident: make(map[core.VertexID][]core.EdgeKey),
		outV:     make(map[core.VertexID][]core.VertexTuple),
		outE:     make(map[core.EdgeKey][]core.EdgeTuple),
	}
	for _, t := range vs {
		if nid, ok := spec.Skolem(t.ID, t.Props); ok {
			v.groups[nid] = append(v.groups[nid], core.HistoryItem{Interval: t.Interval, Props: t.Props})
		}
	}
	for nid, states := range v.groups {
		v.outV[nid] = core.AZoomGroup(spec, v.agg, nid, states)
	}
	for k, h := range v.base.E {
		v.addIncident(k)
		v.outE[k] = core.RedirectEdge(spec, v.esk, k, h, v.base.V[k.Src], v.base.V[k.Dst], nil)
	}
	mViewBuild.Add(1)
	return v, nil
}

// addIncident registers k in the incident index of both endpoints.
func (v *AZoomView) addIncident(k core.EdgeKey) {
	v.incident[k.Src] = append(v.incident[k.Src], k)
	if k.Dst != k.Src {
		v.incident[k.Dst] = append(v.incident[k.Dst], k)
	}
}

// Apply folds a batch of WAL deltas into the view. Staging happens
// first; the committed maps are written only after the final fault
// site, so an error (injected or real) leaves the view at its
// pre-delta state.
func (v *AZoomView) Apply(deltas []wal.Delta) (Stats, error) {
	start := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	var stats Stats
	if err := v.opts.hookErr("incr.apply.azoom"); err != nil {
		return stats, err
	}

	// Stage base-state additions copy-on-write and collect the touched
	// groups and edges.
	staged := core.NewHistories()
	stagedG := make(map[core.VertexID][]core.HistoryItem)
	var newEdges []core.EdgeKey
	touchedG := make(map[core.VertexID]bool)
	touchedE := make(map[core.EdgeKey]bool)
	for _, d := range deltas {
		switch d.Kind {
		case wal.KindVertex:
			t, _ := d.VertexTuple()
			it := core.HistoryItem{Interval: t.Interval, Props: t.Props}
			stage(staged.V, v.base.V, t.ID, it)
			if nid, ok := v.spec.Skolem(t.ID, t.Props); ok {
				stage(stagedG, v.groups, nid, it)
				touchedG[nid] = true
			}
			for _, k := range v.incident[t.ID] {
				touchedE[k] = true
			}
			// Edges staged in this same batch are indexed below; a
			// later vertex delta for one of their endpoints still
			// touches them because every staged edge is recomputed.
		case wal.KindEdge:
			t, _ := d.EdgeTuple()
			k := t.Key()
			if latest(staged.E, v.base.E, k) == nil {
				newEdges = append(newEdges, k)
			}
			stage(staged.E, v.base.E, k, core.HistoryItem{Interval: t.Interval, Props: t.Props})
			touchedE[k] = true
		}
	}

	// Recompute the touched groups from the staged indexes.
	newOutV := make(map[core.VertexID][]core.VertexTuple, len(touchedG))
	for nid := range touchedG {
		newOutV[nid] = core.AZoomGroup(v.spec, v.agg, nid, stagedG[nid])
		stats.GroupsPatched++
	}
	newOutE := make(map[core.EdgeKey][]core.EdgeTuple, len(touchedE))
	for k := range touchedE {
		// The redirect reads endpoint states through the staged view so
		// a vertex and an incident edge landing in one batch compose.
		newOutE[k] = core.RedirectEdge(v.spec, v.esk, k, latest(staged.E, v.base.E, k),
			latest(staged.V, v.base.V, k.Src), latest(staged.V, v.base.V, k.Dst), nil)
		stats.GroupsPatched++
	}

	if err := v.opts.hookErr("incr.apply.commit"); err != nil {
		return Stats{}, err
	}
	// Commit: plain map writes only — no fallible step past this
	// point, so the view is never observable half-patched.
	maps.Copy(v.base.V, staged.V)
	maps.Copy(v.base.E, staged.E)
	maps.Copy(v.groups, stagedG)
	for _, k := range newEdges {
		v.addIncident(k)
	}
	maps.Copy(v.outV, newOutV)
	maps.Copy(v.outE, newOutE)
	stats.record()
	mLatency.Observe(time.Since(start))
	return stats, nil
}

// Result snapshots the materialized output as uncoalesced zoomed state
// tuples, the same relation the batch aZoom emits.
func (v *AZoomView) Result() ([]core.VertexTuple, []core.EdgeTuple) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var vs []core.VertexTuple
	for _, out := range v.outV {
		vs = append(vs, out...)
	}
	var es []core.EdgeTuple
	for _, out := range v.outE {
		es = append(es, out...)
	}
	return vs, es
}
