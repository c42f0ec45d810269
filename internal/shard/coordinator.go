package shard

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Scatter instruments (registered on the default obs registry, like
// every other subsystem's).
var (
	mScatters     = obs.Default().Counter("shard.scatters")
	mLegs         = obs.Default().Counter("shard.legs")
	mLegFailures  = obs.Default().Counter("shard.leg_failures")
	mFallbacks    = obs.Default().Counter("shard.fallbacks")
	mGroupsMerged = obs.Default().Counter("shard.groups_merged")
	mLegLatency   = obs.Default().Histogram("shard.leg_latency")
)

// legBudgetFraction is how much of the request's remaining deadline the
// scatter legs get; the rest is reserved for the coordinator merge.
const legBudgetFraction = 0.9

// Options configures a Coordinator and its workers.
type Options struct {
	// Parallelism sizes each worker's dataflow context.
	Parallelism int
	// FaultHook, when non-nil, is invoked at fault sites (site
	// "shard.leg" at the start of every scatter leg) and its error fails
	// the leg — the chaos-testing seam, mirroring internal/faults.
	FaultHook func(site string) error
}

// Coordinator owns N in-process shard workers and serves scatter-gather
// queries over them, concurrently. It is immutable once built: a grown
// graph is served by a new coordinator split from it, so a query sees
// every shard at one version.
type Coordinator struct {
	n       int
	hook    func(site string) error
	workers []*Worker
}

// NewFromStates splits the given states in memory and builds a loaded
// Coordinator over them — the serving layer's path for graph
// directories run with -shards > 1.
func NewFromStates(vs []core.VertexTuple, es []core.EdgeTuple, st VertexCut, n int, opts Options) *Coordinator {
	parts, _ := Split(vs, es, st, n)
	c := &Coordinator{n: len(parts), hook: opts.FaultHook}
	for _, p := range parts {
		c.workers = append(c.workers, newMemWorker(p, opts))
	}
	return c
}

// N returns the shard count.
func (c *Coordinator) N() int { return c.n }

// Close releases every worker's dataflow context.
func (c *Coordinator) Close() {
	for _, w := range c.workers {
		w.close()
	}
}

// Query is one operator chain, decomposed by the serving layer for
// scatter dispatch: when the chain's first step is an aZoom, a wZoom or
// a range restriction, the corresponding field carries it so the
// coordinator can evaluate it shard-side; First holds the first step's
// unsharded closure for the gather fallback (nil when Clip covers it),
// and Tail holds the remaining steps, always applied at the coordinator
// after the merge.
type Query struct {
	// Canon is the canonical form of the first step. The coordinator
	// does not read it.
	Canon string
	// Rep is the graph's serving representation — the representation
	// the merged states are converted to before First/Tail run.
	Rep core.Representation
	// AZ/WZ are set when the first step is the respective zoom.
	AZ *core.AZoomSpec
	WZ *core.WZoomSpec
	// Clip is set when the first step is a range restriction; the clip
	// is applied shard-side.
	Clip temporal.Interval
	// First applies the first step unsharded (fallback path); nil when
	// Clip represents it.
	First func(core.TGraph) (core.TGraph, error)
	// Tail applies the remaining steps in order.
	Tail []func(core.TGraph) (core.TGraph, error)
}

// Stats describes how a scatter went, for response headers and logs.
type Stats struct {
	// N and OK are the shard count and the number of shards whose
	// contribution is reflected in the result: a scatter is
	// all-or-nothing, so OK is N on success and 0 on failure.
	N, OK int
	// Fallback marks the gather-states fallback path.
	Fallback bool
}

// Header renders the Stats as the X-TGraph-Shards header value, "k/n".
func (s Stats) Header() string { return fmt.Sprintf("%d/%d", s.OK, s.N) }

// repFast reports whether the representation is eligible for shard-side
// zoom evaluation. VE and OG coalesce per entity before zooming, which
// is exactly what the workers' normalized histories reproduce; RG
// windows over raw fragments and OGC is topology-only, so both take the
// (still byte-identical) gather fallback.
func repFast(r core.Representation) bool { return r == core.RepVE || r == core.RepOG }

// hasCustomAgg reports whether the aggregate spec carries a user
// combine function. Custom combines are merged at the coordinator only
// via the fallback: the spec documents them commutative/associative,
// but the unsharded batch path is the semantic reference and the
// fallback reproduces it exactly.
func hasCustomAgg(s props.AggSpec) bool {
	for _, f := range s.Fields {
		if f.Kind == props.AggCustom {
			return true
		}
	}
	return false
}

// Run scatters the query to the shard workers, merges the partial
// results with the zoomstage kernels and applies the chain's tail. The
// returned graph is byte-identical (after the serving layer's canonical
// encode) to running the same chain over the unsharded graph; Stats
// reports the scatter shape. On failure the error is (or wraps) a
// *dataflow.JobError with stage "shard.scatter" naming every failed
// shard.
func (c *Coordinator) Run(ctx context.Context, dctx *dataflow.Context, q Query) (core.TGraph, Stats, error) {
	mScatters.Add(1)
	st := Stats{N: c.n}
	lctx, cancel := legContext(ctx)
	defer cancel()
	var g core.TGraph
	var err error
	switch {
	case q.AZ != nil && repFast(q.Rep) && !hasCustomAgg(q.AZ.Agg):
		g, err = c.runAZoom(lctx, dctx, q)
	case q.WZ != nil && repFast(q.Rep):
		g, err = c.runWZoom(lctx, dctx, q)
	default:
		st.Fallback = true
		g, err = c.runGather(lctx, dctx, q)
	}
	if err != nil {
		return nil, st, err
	}
	st.OK = c.n
	return g, st, nil
}

// legContext derives the scatter legs' deadline from the request
// budget: legBudgetFraction of the remaining time, reserving the rest
// for the merge and encode.
func legContext(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, time.Now().Add(time.Duration(float64(rem)*legBudgetFraction)))
}

// scatter fans leg out to every worker concurrently, one
// span-instrumented goroutine per shard, and returns their results in
// shard order. It is all-or-nothing: the first failed leg cancels its
// siblings, and the scatter fails with a *dataflow.JobError naming
// every failed shard; legs that die of that sibling cancellation are
// reported as skipped, not failed.
func (c *Coordinator) scatter(ctx context.Context, leg func(context.Context, *Worker) (any, error)) ([]any, error) {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]any, c.n)
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			span := obs.StartSpan("shard.leg")
			defer span.End()
			start := time.Now()
			defer func() {
				mLegLatency.Observe(time.Since(start))
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("shard %d: leg panic: %v", i, r)
				}
				if errs[i] != nil {
					cancel()
				}
			}()
			mLegs.Add(1)
			if c.hook != nil {
				if err := c.hook("shard.leg"); err != nil {
					errs[i] = err
					return
				}
			}
			results[i], errs[i] = leg(ictx, w)
		}(i, w)
	}
	wg.Wait()

	var tasks []*dataflow.TaskError
	skipped := 0
	siblingCancel := ctx.Err() == nil // ictx cancellations came from a failed sibling
	for i, err := range errs {
		switch {
		case err == nil:
		case siblingCancel && errors.Is(err, context.Canceled):
			skipped++
		default:
			mLegFailures.Add(1)
			tasks = append(tasks, &dataflow.TaskError{
				Stage:     "shard.scatter",
				Partition: i,
				Attempts:  1,
				Err:       err,
			})
		}
	}
	if len(tasks) == 0 && skipped == 0 {
		return results, nil
	}
	je := &dataflow.JobError{Stage: "shard.scatter", Tasks: tasks, TasksSkipped: skipped}
	if err := ctx.Err(); err != nil {
		je.Cancel = err
	}
	return nil, je
}

// runAZoom is the shard-side aZoom path: each worker contributes its
// masters' Skolem-group states and its local edges' redirected outputs;
// the coordinator re-reduces each group — now complete — with
// AZoomGroup, the exact batch kernel.
func (c *Coordinator) runAZoom(ctx context.Context, dctx *dataflow.Context, q Query) (core.TGraph, error) {
	spec := *q.AZ
	esk := spec.BoundEdgeSkolem()
	res, err := c.scatter(ctx, func(ctx context.Context, w *Worker) (any, error) {
		return w.azoomPartial(ctx, &spec, esk)
	})
	if err != nil {
		return nil, err
	}
	groups := make(map[core.VertexID][]core.HistoryItem)
	var es []core.EdgeTuple
	for _, r := range res {
		p := r.(*azPartial)
		for id, s := range p.Groups {
			groups[id] = append(groups[id], s...)
		}
		es = append(es, p.Edges...)
	}
	agg := spec.Agg.Bind()
	var vs []core.VertexTuple
	for id, s := range groups {
		vs = append(vs, core.AZoomGroup(spec, agg, id, s)...)
	}
	mGroupsMerged.Add(int64(len(groups)))
	return c.finish(dctx, q, vs, es)
}

// runWZoom is the two-phase shard-side wZoom path. Phase one probes
// every shard for its data span (and, for change-based window specs,
// its normalized state boundaries); the coordinator merges them into
// the global lifetime and change-point set — exact, because boundary
// sets union losslessly and the change-window spec filters to the
// lifetime interior itself — and derives the window relation once.
// Phase two scatters that relation for per-entity windowed reduction;
// dangling-edge removal runs at the coordinator against the merged
// (global) vertex outputs.
func (c *Coordinator) runWZoom(ctx context.Context, dctx *dataflow.Context, q Query) (core.TGraph, error) {
	spec := *q.WZ
	cs := temporal.UsesChangePoints(spec.Window)
	probes, err := c.scatter(ctx, func(_ context.Context, w *Worker) (any, error) {
		return w.wzoomProbe(cs), nil
	})
	if err != nil {
		return nil, err
	}
	lifetime := temporal.Empty
	var bounds []temporal.Time
	for _, r := range probes {
		p := r.(wzProbe)
		lifetime = temporal.Span(lifetime, p.Lifetime)
		bounds = append(bounds, p.Bounds...)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	windows := spec.Window.Windows(lifetime, bounds)

	parts, err := c.scatter(ctx, func(ctx context.Context, w *Worker) (any, error) {
		return w.wzoomPartial(ctx, &spec, windows)
	})
	if err != nil {
		return nil, err
	}
	// Masters are disjoint across shards, and so are edge owners.
	out := core.NewHistories()
	for _, r := range parts {
		p := r.(core.Histories)
		maps.Copy(out.V, p.V)
		maps.Copy(out.E, p.E)
	}
	vs, es := out.WZoomFinish(spec)
	return c.finish(dctx, q, vs, es)
}

// runGather is the fallback for every other chain shape: collect the
// shards' raw base states (masters and owned edges — the lossless
// multiset), clipped to the leading range restriction when present, and
// run the unsharded operator chain over the merged graph.
func (c *Coordinator) runGather(ctx context.Context, dctx *dataflow.Context, q Query) (core.TGraph, error) {
	mFallbacks.Add(1)
	res, err := c.scatter(ctx, func(ctx context.Context, w *Worker) (any, error) {
		return w.states(ctx, q.Clip)
	})
	if err != nil {
		return nil, err
	}
	var vs []core.VertexTuple
	var es []core.EdgeTuple
	for _, r := range res {
		p := r.(*statesPartial)
		vs = append(vs, p.V...)
		es = append(es, p.E...)
	}
	g, err := c.mergeGraph(dctx, q, vs, es)
	if err != nil {
		return nil, err
	}
	if q.First != nil {
		if g, err = q.First(g); err != nil {
			return nil, err
		}
	}
	return c.tail(q, g)
}

// finish materialises merged zoom outputs in the serving representation
// and applies the chain's tail steps.
func (c *Coordinator) finish(dctx *dataflow.Context, q Query, vs []core.VertexTuple, es []core.EdgeTuple) (core.TGraph, error) {
	g, err := c.mergeGraph(dctx, q, vs, es)
	if err != nil {
		return nil, err
	}
	return c.tail(q, g)
}

// mergeGraph builds the merged VE relation and converts it to the
// serving representation — the same construction the serving layer's
// view encode uses, so the downstream encode canonicalises identically.
func (c *Coordinator) mergeGraph(dctx *dataflow.Context, q Query, vs []core.VertexTuple, es []core.EdgeTuple) (core.TGraph, error) {
	return core.Convert(core.NewVE(dctx, vs, es), q.Rep)
}

// tail applies the chain's remaining steps.
func (c *Coordinator) tail(q Query, g core.TGraph) (core.TGraph, error) {
	var err error
	for _, f := range q.Tail {
		if g, err = f(g); err != nil {
			return nil, err
		}
	}
	return g, nil
}
