package incr

import (
	"context"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
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
// from the final vertex outputs — by the batch drivers' rule, through
// core.Histories.WZoomFinish — so vertex retention flips caused by a
// patch never leave stale edges behind.
type WZoomView struct {
	mu   sync.RWMutex
	spec core.WZoomSpec
	opts Options

	// changeSensitive marks window specs whose relation depends on the
	// state change points; every Apply on such a view is a full
	// rebuild.
	changeSensitive bool

	lifetime temporal.Interval
	windows  []temporal.Window

	// base holds every entity's states in append order; out its
	// windowed outputs, before dangling-edge removal.
	base, out core.Histories
}

// NewWZoomView builds the view from the graph's current states — one
// batch-zoom-equivalent pass — after which Apply patches the touched
// entities and windows.
func NewWZoomView(g core.TGraph, spec core.WZoomSpec, opts Options) (*WZoomView, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	v := &WZoomView{
		spec:            spec,
		opts:            opts,
		changeSensitive: temporal.UsesChangePoints(spec.Window),
		lifetime:        g.Lifetime(),
		base:            core.HistoriesOf(g.VertexStates(), g.EdgeStates()),
	}
	v.windows = v.windowsOf(v.base, v.lifetime)
	v.out = v.wzoom(v.base, v.windows)
	mViewBuild.Add(1)
	return v, nil
}

// ChangeSensitive reports whether the view's window spec derives its
// boundaries from the change points, making every Apply a full rebuild.
// The serving layer uses this to keep change-based chains on the
// invalidate path instead of registering a view.
func (v *WZoomView) ChangeSensitive() bool { return v.changeSensitive }

// windowsOf derives the window relation of base states over lifetime.
func (v *WZoomView) windowsOf(base core.Histories, lifetime temporal.Interval) []temporal.Window {
	var cps []temporal.Time
	if v.changeSensitive {
		cps = base.ChangePoints()
	}
	return v.spec.Window.Windows(lifetime, cps)
}

// wzoom windows the given entities. View maintenance takes no context;
// the error WZoom returns only for an ended one is dropped.
func (v *WZoomView) wzoom(h core.Histories, windows []temporal.Window) core.Histories {
	out, _ := h.WZoom(context.TODO(), v.spec, windows)
	return out
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
	staged := core.NewHistories()
	newLifetime := v.lifetime
	span := temporal.Empty
	for _, d := range deltas {
		newLifetime = temporal.Span(newLifetime, d.Interval)
		span = temporal.Span(span, d.Interval)
		switch d.Kind {
		case wal.KindVertex:
			t, _ := d.VertexTuple()
			stage(staged.V, v.base.V, t.ID, core.HistoryItem{Interval: t.Interval, Props: t.Props})
		case wal.KindEdge:
			t, _ := d.EdgeTuple()
			stage(staged.E, v.base.E, t.Key(), core.HistoryItem{Interval: t.Interval, Props: t.Props})
		}
	}

	// redo holds the entities to re-window: by default the delta
	// entities alone.
	redo := staged
	var newWindows []temporal.Window
	full := v.changeSensitive
	if !full {
		newWindows = v.spec.Window.Windows(newLifetime, nil)
		switch {
		case slices.Equal(newWindows, v.windows):
			// Decomposable: only the delta entities change.
			stats.WindowsRecomputed += (len(staged.V) + len(staged.E)) * len(temporal.OverlappingWindows(newWindows, span))
		case newLifetime.Start == v.lifetime.Start && len(newWindows) >= len(v.windows):
			// The tail of the relation moved (clamped final window
			// extended, windows appended): scoped recomputation of
			// every entity overlapping the changed range, plus the
			// delta entities.
			scopeFrom := len(v.windows) - 1
			for i := 0; i < len(v.windows)-1; i++ {
				if newWindows[i] != v.windows[i] {
					scopeFrom = i
					break
				}
			}
			changed := temporal.Interval{Start: newWindows[scopeFrom].Interval.Start, End: newLifetime.End}
			stats.WindowsRecomputed += len(newWindows) - scopeFrom
			redo = core.Histories{V: overlapping(v.base.V, staged.V, changed), E: overlapping(v.base.E, staged.E, changed)}
		default:
			// Window alignment shifted (lifetime start moved): nothing
			// short of a rebuild is sound.
			full = true
		}
	}
	if full {
		stats.FallbackFull = true
		redo = core.Histories{V: merged(v.base.V, staged.V), E: merged(v.base.E, staged.E)}
		newWindows = v.windowsOf(redo, newLifetime)
	}
	out := v.wzoom(redo, newWindows)

	if err := v.opts.hookErr("incr.apply.commit"); err != nil {
		return Stats{}, err
	}
	// Commit: plain writes only. Every entity the view holds outputs
	// for is in a full rebuild's redo set, so patching the re-windowed
	// entities covers all three paths.
	maps.Copy(v.base.V, staged.V)
	maps.Copy(v.base.E, staged.E)
	v.lifetime = newLifetime
	v.windows = newWindows
	patch(v.out.V, redo.V, out.V)
	patch(v.out.E, redo.E, out.E)
	stats.record()
	mLatency.Observe(time.Since(start))
	return stats, nil
}

// merged returns the committed histories overlaid with the staged ones.
func merged[K comparable](committed, staged map[K][]core.HistoryItem) map[K][]core.HistoryItem {
	m := make(map[K][]core.HistoryItem, len(committed)+len(staged))
	maps.Copy(m, committed)
	maps.Copy(m, staged)
	return m
}

// overlapping returns every staged history and every committed one with
// a state overlapping iv.
func overlapping[K comparable](committed, staged map[K][]core.HistoryItem, iv temporal.Interval) map[K][]core.HistoryItem {
	m := maps.Clone(staged)
	for k, h := range committed {
		if _, ok := m[k]; ok {
			continue
		}
		if slices.ContainsFunc(h, func(it core.HistoryItem) bool { return it.Interval.Overlaps(iv) }) {
			m[k] = h
		}
	}
	return m
}

// patch replaces the outputs of every re-windowed entity: its new
// output where a window retained it, no entry where none did.
func patch[K comparable](out, redo, windowed map[K][]core.HistoryItem) {
	for k := range redo {
		if o, ok := windowed[k]; ok {
			out[k] = o
		} else {
			delete(out, k)
		}
	}
}

// Result snapshots the materialized output as uncoalesced windowed
// state tuples, applying dangling-edge removal (the batch drivers' rule
// over the final vertex outputs) when the vertex quantifier is more
// restrictive than the edge quantifier.
func (v *WZoomView) Result() ([]core.VertexTuple, []core.EdgeTuple) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.out.WZoomFinish(v.spec)
}
