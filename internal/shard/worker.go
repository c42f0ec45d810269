package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// cancelStride is how many entities a worker processes between
// cancellation checks; the kernels themselves are context-free.
const cancelStride = 512

// Worker is one in-process shard: the shard's state maps (masters,
// mirrors, owned edges) and its own dataflow context.
//
// All query methods take the scatter leg's context and abort between
// entities when it ends. Appends are serialised by the coordinator;
// queries run concurrently under the read lock.
type Worker struct {
	idx  int
	dctx *dataflow.Context

	mu sync.RWMutex
	// base holds the states the shard owns: its master vertices and
	// its edges. Histories only grow by append, so a slice read under
	// the lock stays valid after it.
	base    core.Histories
	mirrors map[core.VertexID][]core.HistoryItem
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
		base:      core.HistoriesOf(p.Masters, p.Edges),
		mirrors:   make(map[core.VertexID][]core.HistoryItem),
		endpoints: make(map[core.VertexID]struct{}),
		span:      temporal.Empty,
	}
	for _, t := range p.Masters {
		w.span = temporal.Span(w.span, t.Interval)
	}
	for _, t := range p.Mirrors {
		w.mirrors[t.ID] = append(w.mirrors[t.ID], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	}
	for _, t := range p.Edges {
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

// vstatesLocked returns the full history of a vertex the shard knows
// (master or mirror), shared with the worker. Caller holds w.mu (read).
func (w *Worker) vstatesLocked(id core.VertexID) []core.HistoryItem {
	if h, ok := w.base.V[id]; ok {
		return h
	}
	return w.mirrors[id]
}

// azPartial is one shard's contribution to a scattered aZoom: the
// contributing states of every Skolem group touched by its masters
// (group reduction happens at the coordinator, where the group is
// complete) and the fully redirected outputs of its local edges (each
// local edge sees the complete state lists of both endpoints via the
// mirrors, so redirection is exact shard-side).
type azPartial struct {
	Groups map[core.VertexID][]core.HistoryItem
	Edges  []core.EdgeTuple
}

// azoomPartial computes the shard's aZoom partial.
func (w *Worker) azoomPartial(ctx context.Context, spec *core.AZoomSpec, esk core.EdgeSkolemFunc) (*azPartial, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	p := &azPartial{Groups: make(map[core.VertexID][]core.HistoryItem)}
	n := 0
	for id, h := range w.base.V {
		if n++; n%cancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		for _, it := range h {
			if nid, ok := spec.Skolem(id, it.Props); ok {
				p.Groups[nid] = append(p.Groups[nid], it)
			}
		}
	}
	for k, h := range w.base.E {
		if n++; n%cancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		p.Edges = core.RedirectEdge(*spec, esk, k, h, w.vstatesLocked(k.Src), w.vstatesLocked(k.Dst), p.Edges)
	}
	return p, nil
}

// wzProbe is the first wZoom phase's answer: the shard's data span and
// — for change-based window specs — the change points of its
// coalesced states. The coordinator merges the probes into the global
// lifetime and change-point set before deriving the window relation
// (the change-window spec filters the merged bounds to the lifetime
// interior itself, so the per-shard union is exact).
type wzProbe struct {
	Lifetime temporal.Interval
	Bounds   []temporal.Time
}

// wzoomProbe computes the shard's probe.
func (w *Worker) wzoomProbe(changeSensitive bool) wzProbe {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p := wzProbe{Lifetime: w.span}
	if changeSensitive {
		p.Bounds = w.base.ChangePoints()
	}
	return p
}

// wzoomPartial windows the shard's master vertices and local edges
// under the globally derived window relation. Dangling-edge removal is
// NOT applied here — it is a semijoin against the global vertex
// outputs, which only the coordinator holds.
func (w *Worker) wzoomPartial(ctx context.Context, spec *core.WZoomSpec, windows []temporal.Window) (core.Histories, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.base.WZoom(ctx, *spec, windows)
}

// statesPartial is one shard's raw base states (masters and owned
// edges; mirrors are replicas and excluded so the merged multiset is
// exactly the unsharded one), optionally clipped to a range.
type statesPartial struct {
	V []core.VertexTuple
	E []core.EdgeTuple
}

// states gathers the raw shard states, clipped to clip when non-empty —
// exactly the serving layer's range-step clip.
func (w *Worker) states(ctx context.Context, clip temporal.Interval) (*statesPartial, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	p := &statesPartial{}
	n := 0
	for id, h := range w.base.V {
		if n++; n%cancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
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
	for k, h := range w.base.E {
		if n++; n%cancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
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
	return p, nil
}

// hasVertex reports whether the shard knows the vertex (as master or
// mirror) — consulted when routing edge appends.
func (w *Worker) hasVertex(id core.VertexID) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, m := w.base.V[id]
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

// masterStates returns the vertex's mastered history, for seeding
// another shard's mirror. The slice is shared: appends never write
// within its length.
func (w *Worker) masterStates(id core.VertexID) []core.HistoryItem {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.base.V[id]
}

// appendMaster applies one vertex delta to the shard's mastered states.
func (w *Worker) appendMaster(d wal.Delta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := d.VertexTuple()
	if !ok {
		return fmt.Errorf("shard %d: appendMaster: not a vertex delta", w.idx)
	}
	w.base.V[t.ID] = append(w.base.V[t.ID], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	w.span = temporal.Span(w.span, t.Interval)
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
	k := t.Key()
	w.base.E[k] = append(w.base.E[k], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	w.endpoints[t.Src] = struct{}{}
	w.endpoints[t.Dst] = struct{}{}
	w.span = temporal.Span(w.span, t.Interval)
	return nil
}
