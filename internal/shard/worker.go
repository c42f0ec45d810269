package shard

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/temporal"
)

// cancelStride is how many entities a worker processes between
// cancellation checks; the kernels themselves are context-free.
const cancelStride = 512

// Worker is one in-process shard: the shard's state maps (masters,
// mirrors, owned edges) and its own dataflow context. Nothing changes
// them after newMemWorker, so queries read them concurrently without a
// lock.
//
// All query methods take the scatter leg's context and abort between
// entities when it ends.
type Worker struct {
	dctx *dataflow.Context

	// base holds the states the shard owns: its master vertices and
	// its edges.
	base    core.Histories
	mirrors map[core.VertexID][]core.HistoryItem
	span    temporal.Interval // span of base (master + edge) states
}

// newMemWorker builds a loaded in-memory worker from a split part.
func newMemWorker(p Part, opts Options) *Worker {
	w := &Worker{
		dctx:    dataflow.NewContext(dataflow.WithParallelism(opts.Parallelism)),
		base:    core.HistoriesOf(p.Masters, p.Edges),
		mirrors: make(map[core.VertexID][]core.HistoryItem),
		span:    temporal.Empty,
	}
	for _, t := range p.Masters {
		w.span = temporal.Span(w.span, t.Interval)
	}
	for _, t := range p.Mirrors {
		w.mirrors[t.ID] = append(w.mirrors[t.ID], core.HistoryItem{Interval: t.Interval, Props: t.Props})
	}
	for _, t := range p.Edges {
		w.span = temporal.Span(w.span, t.Interval)
	}
	return w
}

// close releases the worker's dataflow context.
func (w *Worker) close() { w.dctx.Close() }

// vstates returns the full history of a vertex the shard knows (master
// or mirror), shared with the worker.
func (w *Worker) vstates(id core.VertexID) []core.HistoryItem {
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
		p.Edges = core.RedirectEdge(*spec, esk, k, h, w.vstates(k.Src), w.vstates(k.Dst), p.Edges)
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
