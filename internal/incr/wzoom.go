package incr

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// WZoomView is a materialized wZoom^T result. It keeps every entity's
// base states (coalesced lazily per entity, as the batch path does)
// and the per-entity windowed outputs, so a delta maps to the tumbling
// windows overlapping its interval: the touched entity re-reduces over
// the window relation with the same WZoomEntity kernel the OG batch
// pipeline runs per entity.
//
// Window-relation shifts are the non-decomposable cases. The view
// re-derives the window relation after every batch and compares it
// with the committed one: an unchanged relation patches only the delta
// entities; a relation that changed past some prefix (a lifetime
// extension moving the clamped final unit window or appending windows)
// triggers scoped recomputation of every entity overlapping the
// changed window range; a relation whose prefix changed (lifetime
// start moved backwards) or a change-based window spec (boundaries
// derived from the states themselves, probed once at construction)
// rebuilds the view fully.
//
// Dangling-edge removal (applied when the vertex quantifier is more
// restrictive than the edge quantifier) is evaluated at Result time
// from the final vertex outputs — exactly the batch semijoin predicate
// — so vertex retention flips caused by a patch never leave stale
// edges behind.
type WZoomView struct {
	mu   sync.RWMutex
	spec core.WZoomSpec
	vres props.BoundResolve
	eres props.BoundResolve
	opts Options

	// changeSensitive marks window specs whose relation depends on the
	// state change points; every Apply on such a view is a full
	// rebuild.
	changeSensitive bool

	lifetime temporal.Interval
	windows  []temporal.Window

	// Base states per entity, in append order (normalized per entity
	// before reducing).
	vBase map[core.VertexID][]core.HistoryItem
	eBase map[edgeKey][]core.HistoryItem

	// Windowed outputs per entity, before dangling-edge removal.
	vOut map[core.VertexID][]core.HistoryItem
	eOut map[edgeKey][]core.HistoryItem
}

// NewWZoomView builds the view from the graph's current states — one
// batch-zoom-equivalent pass — after which Apply patches the touched
// entities and windows.
func NewWZoomView(g core.TGraph, spec core.WZoomSpec, opts Options) (*WZoomView, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	v := &WZoomView{
		spec: spec,
		vres: spec.VResolve.Bind(),
		eres: spec.EResolve.Bind(),
		opts: opts,
	}
	v.vBase = make(map[core.VertexID][]core.HistoryItem)
	v.eBase = make(map[edgeKey][]core.HistoryItem)
	for _, t := range g.VertexStates() {
		v.vBase[t.ID] = append(v.vBase[t.ID], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	}
	for _, t := range g.EdgeStates() {
		k := edgeKey{ID: t.ID, Src: t.Src, Dst: t.Dst}
		v.eBase[k] = append(v.eBase[k], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	}
	v.lifetime = g.Lifetime()
	v.changeSensitive = temporal.UsesChangePoints(spec.Window)
	v.windows, v.vOut, v.eOut = v.rebuild(v.vBase, v.eBase, v.lifetime)
	mViewBuild.Add(1)
	return v, nil
}

// ChangeSensitive reports whether the view's window spec derives its
// boundaries from the change points, making every Apply a full rebuild.
// The serving layer uses this to keep change-based chains on the
// invalidate path instead of registering a view.
func (v *WZoomView) ChangeSensitive() bool { return v.changeSensitive }

// normalizedStates flattens per-entity normalized histories back to
// tuple slices — the coalesced relation the window derivation (change
// points) must see, matching the batch path's coalesce-before-window
// order.
func normalizedStates(vBase map[core.VertexID][]core.HistoryItem, eBase map[edgeKey][]core.HistoryItem) ([]core.VertexTuple, []core.EdgeTuple) {
	var vs []core.VertexTuple
	for id, h := range vBase {
		for _, it := range core.NormalizeHistory(appendCopy(h)) {
			vs = append(vs, core.VertexTuple{ID: id, Interval: it.Interval, Props: it.Props})
		}
	}
	var es []core.EdgeTuple
	for k, h := range eBase {
		for _, it := range core.NormalizeHistory(appendCopy(h)) {
			es = append(es, core.EdgeTuple{ID: k.ID, Src: k.Src, Dst: k.Dst, Interval: it.Interval, Props: it.Props})
		}
	}
	return vs, es
}

// rebuild recomputes the full materialized state from the given base
// maps — the fallback path, and the build path.
func (v *WZoomView) rebuild(vBase map[core.VertexID][]core.HistoryItem, eBase map[edgeKey][]core.HistoryItem, lifetime temporal.Interval) ([]temporal.Window, map[core.VertexID][]core.HistoryItem, map[edgeKey][]core.HistoryItem) {
	var cps []temporal.Time
	if v.changeSensitive {
		vs, es := normalizedStates(vBase, eBase)
		cps = core.ZoomChangePoints(vs, es)
	}
	windows := v.spec.Window.Windows(lifetime, cps)
	vOut := make(map[core.VertexID][]core.HistoryItem, len(vBase))
	for id, h := range vBase {
		if out := core.WZoomEntity(core.NormalizeHistory(appendCopy(h)), windows, v.spec.VQuant, v.vres); len(out) > 0 {
			vOut[id] = out
		}
	}
	eOut := make(map[edgeKey][]core.HistoryItem, len(eBase))
	for k, h := range eBase {
		if out := core.WZoomEntity(core.NormalizeHistory(appendCopy(h)), windows, v.spec.EQuant, v.eres); len(out) > 0 {
			eOut[k] = out
		}
	}
	return windows, vOut, eOut
}

// Apply folds a batch of WAL deltas into the view, choosing between
// per-entity patching, scoped window recomputation, and a full rebuild
// as described on WZoomView. All staging precedes the final fault
// site; commit is plain map/field writes.
func (v *WZoomView) Apply(deltas []wal.Delta) (Stats, error) {
	start := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	var stats Stats
	if err := v.opts.hookErr("incr.apply.wzoom"); err != nil {
		return stats, err
	}

	// Stage base additions copy-on-write.
	stagedV := make(map[core.VertexID][]core.HistoryItem)
	stagedE := make(map[edgeKey][]core.HistoryItem)
	newLifetime := v.lifetime
	span := temporal.Empty
	for _, d := range deltas {
		newLifetime = temporal.Span(newLifetime, d.Interval)
		span = temporal.Span(span, d.Interval)
		switch d.Kind {
		case wal.KindVertex:
			t, _ := d.VertexTuple()
			it := core.HistoryItem{Interval: t.Interval, Props: t.Props}
			if _, ok := stagedV[t.ID]; !ok {
				stagedV[t.ID] = appendCopy(v.vBase[t.ID])
			}
			stagedV[t.ID] = append(stagedV[t.ID], it)
		case wal.KindEdge:
			t, _ := d.EdgeTuple()
			k := edgeKey{ID: t.ID, Src: t.Src, Dst: t.Dst}
			if _, ok := stagedE[k]; !ok {
				stagedE[k] = appendCopy(v.eBase[k])
			}
			stagedE[k] = append(stagedE[k], core.HistoryItem{Interval: t.Interval, Props: t.Props})
		}
	}
	baseV := func(id core.VertexID) []core.HistoryItem {
		if h, ok := stagedV[id]; ok {
			return h
		}
		return v.vBase[id]
	}
	baseE := func(k edgeKey) []core.HistoryItem {
		if h, ok := stagedE[k]; ok {
			return h
		}
		return v.eBase[k]
	}

	var newWindows []temporal.Window
	newOutV := make(map[core.VertexID][]core.HistoryItem)
	newOutE := make(map[edgeKey][]core.HistoryItem)
	var fullV map[core.VertexID][]core.HistoryItem
	var fullE map[edgeKey][]core.HistoryItem
	full := v.changeSensitive
	scopeFrom := -1 // first window index whose bounds changed, -1 = none
	if !full {
		newWindows = v.spec.Window.Windows(newLifetime, nil)
		switch {
		case windowsEqual(newWindows, v.windows):
			// Decomposable: only the delta entities change.
		case newLifetime.Start == v.lifetime.Start && len(newWindows) >= len(v.windows):
			// The tail of the relation moved (clamped final window
			// extended, windows appended): scoped recomputation of
			// every entity overlapping the changed range.
			scopeFrom = len(v.windows) - 1
			for i := 0; i < len(v.windows)-1; i++ {
				if newWindows[i] != v.windows[i] {
					scopeFrom = i
					break
				}
			}
		default:
			// Window alignment shifted (lifetime start moved): nothing
			// short of a rebuild is sound.
			full = true
		}
	}

	switch {
	case full:
		stats.FallbackFull = true
		// Rebuild against merged base maps (committed + staged).
		mergedV := make(map[core.VertexID][]core.HistoryItem, len(v.vBase)+len(stagedV))
		for id, h := range v.vBase {
			mergedV[id] = h
		}
		for id, h := range stagedV {
			mergedV[id] = h
		}
		mergedE := make(map[edgeKey][]core.HistoryItem, len(v.eBase)+len(stagedE))
		for k, h := range v.eBase {
			mergedE[k] = h
		}
		for k, h := range stagedE {
			mergedE[k] = h
		}
		newWindows, fullV, fullE = v.rebuild(mergedV, mergedE, newLifetime)
	case scopeFrom >= 0:
		// Scoped fallback: recompute every entity with states in the
		// changed window range (plus the delta entities, handled by
		// the same scan because their staged states overlap the range
		// or fall in unchanged windows they also re-reduce over).
		changed := temporal.Interval{Start: newWindows[scopeFrom].Interval.Start, End: newLifetime.End}
		overlaps := func(h []core.HistoryItem) bool {
			for _, it := range h {
				if it.Interval.Overlaps(changed) {
					return true
				}
			}
			return false
		}
		stats.WindowsRecomputed += len(newWindows) - scopeFrom
		for id := range v.vBase {
			if overlaps(baseV(id)) {
				newOutV[id] = core.WZoomEntity(core.NormalizeHistory(appendCopy(baseV(id))), newWindows, v.spec.VQuant, v.vres)
			}
		}
		for id := range stagedV {
			if _, done := newOutV[id]; !done {
				newOutV[id] = core.WZoomEntity(core.NormalizeHistory(appendCopy(stagedV[id])), newWindows, v.spec.VQuant, v.vres)
			}
		}
		for k := range v.eBase {
			if overlaps(baseE(k)) {
				newOutE[k] = core.WZoomEntity(core.NormalizeHistory(appendCopy(baseE(k))), newWindows, v.spec.EQuant, v.eres)
			}
		}
		for k := range stagedE {
			if _, done := newOutE[k]; !done {
				newOutE[k] = core.WZoomEntity(core.NormalizeHistory(appendCopy(stagedE[k])), newWindows, v.spec.EQuant, v.eres)
			}
		}
	default:
		// Pure per-entity patch: re-reduce only the delta entities.
		for id := range stagedV {
			newOutV[id] = core.WZoomEntity(core.NormalizeHistory(appendCopy(stagedV[id])), newWindows, v.spec.VQuant, v.vres)
		}
		for k := range stagedE {
			newOutE[k] = core.WZoomEntity(core.NormalizeHistory(appendCopy(stagedE[k])), newWindows, v.spec.EQuant, v.eres)
		}
		stats.WindowsRecomputed += (len(stagedV) + len(stagedE)) * len(temporal.OverlappingWindows(newWindows, span))
	}

	if err := v.opts.hookErr("incr.apply.commit"); err != nil {
		return Stats{}, err
	}
	// Commit: plain writes only.
	for id, h := range stagedV {
		v.vBase[id] = h
	}
	for k, h := range stagedE {
		v.eBase[k] = h
	}
	v.lifetime = newLifetime
	v.windows = newWindows
	if full {
		v.vOut, v.eOut = fullV, fullE
	} else {
		for id, out := range newOutV {
			if len(out) == 0 {
				delete(v.vOut, id)
			} else {
				v.vOut[id] = out
			}
		}
		for k, out := range newOutE {
			if len(out) == 0 {
				delete(v.eOut, k)
			} else {
				v.eOut[k] = out
			}
		}
	}
	stats.record()
	mLatency.Observe(time.Since(start))
	return stats, nil
}

// Result snapshots the materialized output as uncoalesced windowed
// state tuples, applying dangling-edge removal (the batch semijoin
// predicate over the final vertex outputs) when the vertex quantifier
// is more restrictive than the edge quantifier.
func (v *WZoomView) Result() ([]core.VertexTuple, []core.EdgeTuple) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var vs []core.VertexTuple
	for id, out := range v.vOut {
		for _, it := range out {
			vs = append(vs, core.VertexTuple{ID: id, Interval: it.Interval, Props: it.Props})
		}
	}
	dangling := v.spec.VQuant.MoreRestrictiveThan(v.spec.EQuant)
	covered := func(id core.VertexID, iv temporal.Interval) bool {
		for _, it := range v.vOut[id] {
			if it.Interval.Covers(iv) {
				return true
			}
		}
		return false
	}
	var es []core.EdgeTuple
	for k, out := range v.eOut {
		for _, it := range out {
			if dangling && (!covered(k.Src, it.Interval) || !covered(k.Dst, it.Interval)) {
				continue
			}
			es = append(es, core.EdgeTuple{ID: k.ID, Src: k.Src, Dst: k.Dst, Interval: it.Interval, Props: it.Props})
		}
	}
	return vs, es
}
