package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/qcache"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// edgeKey identifies one input edge (id plus both endpoints, so
// parallel edges with distinct endpoints stay distinct — VE's edge
// identity, the same key the incremental views use).
type edgeKey struct {
	ID       core.EdgeID
	Src, Dst core.VertexID
}

// cancelStride is how many entities a worker processes between
// cancellation checks; the kernels themselves are context-free.
const cancelStride = 512

// Worker is one in-process shard: the shard's state maps (masters,
// mirrors, owned edges), its own dataflow context, and a small cache of
// partial results keyed by the shard's state version.
//
// All query methods take the scatter leg's context and abort between
// entities when it ends. Appends are serialised by the coordinator;
// queries run concurrently under the read lock.
type Worker struct {
	idx   int
	dctx  *dataflow.Context
	cache *qcache.Cache

	mu      sync.RWMutex
	version uint64 // bumped on every state mutation; part of cache keys
	masters map[core.VertexID][]core.HistoryItem
	mirrors map[core.VertexID][]core.HistoryItem
	edges   map[edgeKey][]core.HistoryItem
	// endpoints is the set of vertex ids referenced by local edges —
	// the vertices whose future states must replicate to this shard.
	endpoints map[core.VertexID]struct{}
	span      temporal.Interval // span of base (master + edge) states
}

// newMemWorker builds a loaded in-memory worker from a split part.
func newMemWorker(idx int, p Part, opts Options) *Worker {
	w := &Worker{
		idx:       idx,
		dctx:      dataflow.NewContext(dataflow.WithParallelism(opts.Parallelism)),
		cache:     qcache.New(opts.CacheBytes),
		version:   1,
		masters:   make(map[core.VertexID][]core.HistoryItem),
		mirrors:   make(map[core.VertexID][]core.HistoryItem),
		edges:     make(map[edgeKey][]core.HistoryItem),
		endpoints: make(map[core.VertexID]struct{}),
		span:      temporal.Empty,
	}
	for _, t := range p.Masters {
		w.masters[t.ID] = append(w.masters[t.ID], core.HistoryItem{Interval: t.Interval, Props: t.Props})
		w.span = temporal.Span(w.span, t.Interval)
	}
	for _, t := range p.Mirrors {
		w.mirrors[t.ID] = append(w.mirrors[t.ID], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	}
	for _, t := range p.Edges {
		k := edgeKey{ID: t.ID, Src: t.Src, Dst: t.Dst}
		w.edges[k] = append(w.edges[k], core.HistoryItem{Interval: t.Interval, Props: t.Props})
		w.span = temporal.Span(w.span, t.Interval)
		w.endpoints[t.Src] = struct{}{}
		w.endpoints[t.Dst] = struct{}{}
	}
	return w
}

// close releases the worker's dataflow context.
func (w *Worker) close() { w.dctx.Close() }

// Span returns the interval covered by the shard's base states —
// consulted for range pruning, so it must stay current across appends.
func (w *Worker) Span() temporal.Interval {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.span
}

// cacheKey builds a partial-result cache key bound to the shard's
// current state version, so any append invalidates by construction.
func (w *Worker) cacheKey(phase string, parts ...string) string {
	w.mu.RLock()
	version := w.version
	w.mu.RUnlock()
	return qcache.Key(append([]string{phase, fmt.Sprint(version)}, parts...)...)
}

// vstatesLocked returns the full AZState list of a vertex the shard
// knows (master or mirror). Caller holds w.mu (read).
func (w *Worker) vstatesLocked(id core.VertexID) []core.AZState {
	h := w.masters[id]
	if h == nil {
		h = w.mirrors[id]
	}
	out := make([]core.AZState, len(h))
	for i, it := range h {
		out[i] = core.AZState{Interval: it.Interval, Props: it.Props}
	}
	return out
}

// azPartial is one shard's contribution to a scattered aZoom: the
// contributing states of every Skolem group touched by its masters
// (group reduction happens at the coordinator, where the group is
// complete) and the fully redirected outputs of its local edges (each
// local edge sees the complete state lists of both endpoints via the
// mirrors, so redirection is exact shard-side).
type azPartial struct {
	Groups map[core.VertexID][]core.AZState
	Edges  []core.EdgeTuple
}

// azoomPartial computes (or returns the cached) aZoom partial.
func (w *Worker) azoomPartial(ctx context.Context, spec *core.AZoomSpec, esk core.EdgeSkolemFunc, canon string) (*azPartial, error) {
	val, _, err := w.cache.DoCtx(ctx, w.cacheKey("az", canon), func() (any, int64, error) {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		w.mu.RLock()
		defer w.mu.RUnlock()
		p := &azPartial{Groups: make(map[core.VertexID][]core.AZState)}
		n := 0
		size := int64(0)
		for id, h := range w.masters {
			if n++; n%cancelStride == 0 && ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			for _, it := range h {
				if nid, ok := spec.Skolem(id, it.Props); ok {
					p.Groups[nid] = append(p.Groups[nid], core.AZState{Interval: it.Interval, Props: it.Props})
					size += tupleCost
				}
			}
		}
		for k, h := range w.edges {
			if n++; n%cancelStride == 0 && ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			src, dst := w.vstatesLocked(k.Src), w.vstatesLocked(k.Dst)
			for _, it := range h {
				et := core.EdgeTuple{ID: k.ID, Src: k.Src, Dst: k.Dst, Interval: it.Interval, Props: it.Props}
				out := core.RedirectEdge(*spec, esk, et, src, dst)
				p.Edges = append(p.Edges, out...)
				size += int64(len(out)) * tupleCost
			}
		}
		return p, size + 1, nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*azPartial), nil
}

// tupleCost is the rough cache-accounting cost of one state tuple.
const tupleCost = 96

// wzProbe is the first wZoom phase's answer: the shard's data span and
// — for change-based window specs — the boundary points of its
// normalized states. The coordinator merges the probes into the global
// lifetime and change-point set before deriving the window relation
// (the change-window spec filters the merged bounds to the lifetime
// interior itself, so the per-shard union is exact).
type wzProbe struct {
	Lifetime temporal.Interval
	Bounds   []temporal.Time
}

// wzoomProbe computes the shard's probe. Cheap (no redirect, no
// windowing), so it is not cached.
func (w *Worker) wzoomProbe(changeSensitive bool) wzProbe {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p := wzProbe{Lifetime: w.span}
	if !changeSensitive {
		return p
	}
	var ivs []temporal.Interval
	collect := func(h []core.HistoryItem) {
		for _, it := range core.NormalizeHistory(copyHistory(h)) {
			ivs = append(ivs, it.Interval)
		}
	}
	for _, h := range w.masters {
		collect(h)
	}
	for _, h := range w.edges {
		collect(h)
	}
	p.Bounds = temporal.Boundaries(ivs)
	return p
}

// wzPartial is one shard's contribution to a scattered wZoom: its
// master vertices' and local edges' windowed histories, reduced with
// the globally derived window relation. Dangling-edge removal is NOT
// applied here — it is a semijoin against the global vertex outputs,
// which only the coordinator holds.
type wzPartial struct {
	V map[core.VertexID][]core.HistoryItem
	E map[edgeKey][]core.HistoryItem
}

// wzoomPartial computes (or returns the cached) wZoom partial under the
// given global window relation.
func (w *Worker) wzoomPartial(ctx context.Context, spec *core.WZoomSpec, vres, eres props.BoundResolve, windows []temporal.Window, canon string) (*wzPartial, error) {
	key := w.cacheKey("wz", canon, fmt.Sprint(windows))
	val, _, err := w.cache.DoCtx(ctx, key, func() (any, int64, error) {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		w.mu.RLock()
		defer w.mu.RUnlock()
		p := &wzPartial{
			V: make(map[core.VertexID][]core.HistoryItem),
			E: make(map[edgeKey][]core.HistoryItem),
		}
		n := 0
		size := int64(0)
		for id, h := range w.masters {
			if n++; n%cancelStride == 0 && ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			if out := core.WZoomEntity(core.NormalizeHistory(copyHistory(h)), windows, spec.VQuant, vres); len(out) > 0 {
				p.V[id] = out
				size += int64(len(out)) * tupleCost
			}
		}
		for k, h := range w.edges {
			if n++; n%cancelStride == 0 && ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			if out := core.WZoomEntity(core.NormalizeHistory(copyHistory(h)), windows, spec.EQuant, eres); len(out) > 0 {
				p.E[k] = out
				size += int64(len(out)) * tupleCost
			}
		}
		return p, size + 1, nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*wzPartial), nil
}

// statesPartial is one shard's raw base states (masters and owned
// edges; mirrors are replicas and excluded so the merged multiset is
// exactly the unsharded one), optionally clipped to a range.
type statesPartial struct {
	V []core.VertexTuple
	E []core.EdgeTuple
}

// states gathers (or returns the cached) raw shard states, clipped to
// clip when non-empty — exactly the serving layer's range-step clip.
func (w *Worker) states(ctx context.Context, clip temporal.Interval) (*statesPartial, error) {
	key := w.cacheKey("st", fmt.Sprintf("%d:%d", clip.Start, clip.End))
	val, _, err := w.cache.DoCtx(ctx, key, func() (any, int64, error) {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		w.mu.RLock()
		defer w.mu.RUnlock()
		p := &statesPartial{}
		n := 0
		for id, h := range w.masters {
			if n++; n%cancelStride == 0 && ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			for _, it := range h {
				iv := it.Interval
				if !clip.IsEmpty() {
					if !iv.Overlaps(clip) {
						continue
					}
					iv = iv.Intersect(clip)
				}
				p.V = append(p.V, core.VertexTuple{ID: id, Interval: iv, Props: it.Props})
			}
		}
		for k, h := range w.edges {
			if n++; n%cancelStride == 0 && ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			for _, it := range h {
				iv := it.Interval
				if !clip.IsEmpty() {
					if !iv.Overlaps(clip) {
						continue
					}
					iv = iv.Intersect(clip)
				}
				p.E = append(p.E, core.EdgeTuple{ID: k.ID, Src: k.Src, Dst: k.Dst, Interval: iv, Props: it.Props})
			}
		}
		return p, int64(len(p.V)+len(p.E))*tupleCost + 1, nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*statesPartial), nil
}

// hasVertex reports whether the shard knows the vertex (as master or
// mirror) — consulted when routing edge appends.
func (w *Worker) hasVertex(id core.VertexID) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, m := w.masters[id]
	_, r := w.mirrors[id]
	return m || r
}

// wantsMirror reports whether a local edge references the vertex, i.e.
// whether vertex appends elsewhere must replicate to this shard.
func (w *Worker) wantsMirror(id core.VertexID) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, ok := w.endpoints[id]
	return ok
}

// noteEndpoint records that a local edge references the vertex even
// though no state of it exists yet anywhere, so later vertex appends
// replicate here.
func (w *Worker) noteEndpoint(id core.VertexID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.endpoints[id] = struct{}{}
}

// masterStates returns a copy of the vertex's mastered history, for
// seeding another shard's mirror.
func (w *Worker) masterStates(id core.VertexID) []core.HistoryItem {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return copyHistory(w.masters[id])
}

// appendMaster applies one vertex delta to the shard's mastered states.
func (w *Worker) appendMaster(d wal.Delta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := d.VertexTuple()
	if !ok {
		return fmt.Errorf("shard %d: appendMaster: not a vertex delta", w.idx)
	}
	w.masters[t.ID] = append(w.masters[t.ID], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	w.span = temporal.Span(w.span, t.Interval)
	w.version++
	return nil
}

// appendMirror applies vertex deltas to the shard's mirror states.
// Mirror states never contribute to the shard's span (their masters do,
// elsewhere).
func (w *Worker) appendMirror(ds ...wal.Delta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, d := range ds {
		t, ok := d.VertexTuple()
		if !ok {
			return fmt.Errorf("shard %d: appendMirror: not a vertex delta", w.idx)
		}
		w.mirrors[t.ID] = append(w.mirrors[t.ID], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	}
	w.version++
	return nil
}

// appendEdge applies one edge delta to the shard's owned edges. Callers
// must have seeded mirrors for foreign endpoints first.
func (w *Worker) appendEdge(d wal.Delta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := d.EdgeTuple()
	if !ok {
		return fmt.Errorf("shard %d: appendEdge: not an edge delta", w.idx)
	}
	k := edgeKey{ID: t.ID, Src: t.Src, Dst: t.Dst}
	w.edges[k] = append(w.edges[k], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	w.endpoints[t.Src] = struct{}{}
	w.endpoints[t.Dst] = struct{}{}
	w.span = temporal.Span(w.span, t.Interval)
	w.version++
	return nil
}

// copyHistory returns a fresh copy of h (NormalizeHistory sorts in
// place, and callers must not mutate the committed slices).
func copyHistory(h []core.HistoryItem) []core.HistoryItem {
	out := make([]core.HistoryItem, len(h))
	copy(out, h)
	return out
}
