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
	mScatters      = obs.Default().Counter("shard.scatters")
	mLegs          = obs.Default().Counter("shard.legs")
	mLegFailures   = obs.Default().Counter("shard.leg_failures")
	mPartialMerges = obs.Default().Counter("shard.partial_merges")
	mFallbacks     = obs.Default().Counter("shard.fallbacks")
	mGroupsMerged  = obs.Default().Counter("shard.groups_merged")
	mLegLatency    = obs.Default().Histogram("shard.leg_latency")
)

// legBudgetFraction is how much of the request's remaining deadline the
// scatter legs get; the rest is reserved for the coordinator merge.
const legBudgetFraction = 0.9

// Options configures a Coordinator and its workers.
type Options struct {
	// Parallelism sizes each worker's dataflow context.
	Parallelism int
	// Partial enables degraded partial-result merges when a subset of
	// shards fails; when false the first leg failure cancels siblings
	// and the scatter reports a typed *dataflow.JobError.
	Partial bool
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
	st      Strategy
	partial bool
	hook    func(site string) error
	workers []*Worker
}

// NewFromStates splits the given states in memory and builds a loaded
// Coordinator over them — the serving layer's path for graph
// directories run with -shards > 1.
func NewFromStates(vs []core.VertexTuple, es []core.EdgeTuple, st Strategy, n int, opts Options) *Coordinator {
	parts, bound := Split(vs, es, st, n)
	c := &Coordinator{n: len(parts), st: bound, partial: opts.Partial, hook: opts.FaultHook}
	for _, p := range parts {
		c.workers = append(c.workers, newMemWorker(p, opts))
	}
	return c
}

// N returns the shard count.
func (c *Coordinator) N() int { return c.n }

// Strategy returns the coordinator's bound placement strategy.
func (c *Coordinator) Strategy() Strategy { return c.st }

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
	// is applied shard-side and non-overlapping shards are pruned.
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
	// contribution is reflected in the result (pruned shards count: they
	// contributed everything they had, namely nothing).
	N, OK int
	// Partial marks a degraded merge (OK < N with Partial mode on).
	Partial bool
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
	switch {
	case q.AZ != nil && c.st.EntityLocal() && repFast(q.Rep) && !hasCustomAgg(q.AZ.Agg):
		g, err := c.runAZoom(lctx, dctx, q, &st)
		return g, st, err
	case q.WZ != nil && c.st.EntityLocal() && repFast(q.Rep):
		g, err := c.runWZoom(lctx, dctx, q, &st)
		return g, st, err
	default:
		g, err := c.runGather(lctx, dctx, q, &st)
		return g, st, err
	}
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

// scatter fans leg out to every included worker concurrently, one
// span-instrumented goroutine per shard. Excluded (pruned) workers
// yield a nil result and count as succeeded; failed legs yield a nil
// result too, never a partly built one. Without Partial mode the
// first failure cancels the sibling legs; legs that die of that
// sibling cancellation are reported as skipped, not failed. The ok
// count is the number of workers whose contribution the caller may
// merge.
func (c *Coordinator) scatter(ctx context.Context, include func(int, *Worker) bool, leg func(context.Context, *Worker) (any, error)) ([]any, int, error) {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]any, c.n)
	errs := make([]error, c.n)
	ran := make([]bool, c.n)
	var wg sync.WaitGroup
	for i, w := range c.workers {
		if include != nil && !include(i, w) {
			continue
		}
		ran[i] = true
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
				if errs[i] != nil && !c.partial {
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
			if r, err := leg(ictx, w); err != nil {
				errs[i] = err
			} else {
				results[i] = r
			}
		}(i, w)
	}
	wg.Wait()

	ok := 0
	var tasks []*dataflow.TaskError
	skipped := 0
	siblingCancel := ctx.Err() == nil // ictx cancellations came from a failed sibling
	for i := range results {
		switch {
		case errs[i] == nil:
			ok++
		case siblingCancel && errors.Is(errs[i], context.Canceled):
			skipped++
		default:
			mLegFailures.Add(1)
			tasks = append(tasks, &dataflow.TaskError{
				Stage:     "shard.scatter",
				Partition: i,
				Attempts:  1,
				Err:       errs[i],
			})
		}
	}
	if len(tasks) == 0 && skipped == 0 {
		return results, ok, nil
	}
	je := &dataflow.JobError{Stage: "shard.scatter", Tasks: tasks, TasksSkipped: skipped}
	if err := ctx.Err(); err != nil {
		je.Cancel = err
	}
	return results, ok, je
}

// degrade resolves a scatter's outcome: full success passes through, a
// failure with Partial mode and at least one survivor switches the
// request to degraded mode, anything else propagates the typed error.
func (c *Coordinator) degrade(st *Stats, ok int, err error) error {
	st.OK = ok
	if err == nil {
		return nil
	}
	if !c.partial || ok == 0 {
		return err
	}
	st.Partial = true
	mPartialMerges.Add(1)
	return nil
}

// runAZoom is the shard-side aZoom path: each worker contributes its
// masters' Skolem-group states and its local edges' redirected outputs;
// the coordinator re-reduces each group — now complete — with
// AZoomGroup, the exact batch kernel.
func (c *Coordinator) runAZoom(ctx context.Context, dctx *dataflow.Context, q Query, st *Stats) (core.TGraph, error) {
	spec := *q.AZ
	esk := spec.BoundEdgeSkolem()
	res, ok, serr := c.scatter(ctx, nil, func(ctx context.Context, w *Worker) (any, error) {
		return w.azoomPartial(ctx, &spec, esk)
	})
	if err := c.degrade(st, ok, serr); err != nil {
		return nil, err
	}
	groups := make(map[core.VertexID][]core.HistoryItem)
	var es []core.EdgeTuple
	for _, r := range res {
		if r == nil {
			continue
		}
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
// the dangling-edge semijoin runs at the coordinator against the merged
// (global) vertex outputs.
func (c *Coordinator) runWZoom(ctx context.Context, dctx *dataflow.Context, q Query, st *Stats) (core.TGraph, error) {
	spec := *q.WZ
	cs := temporal.UsesChangePoints(spec.Window)
	probes, _, perr := c.scatter(ctx, nil, func(_ context.Context, w *Worker) (any, error) {
		return w.wzoomProbe(cs), nil
	})
	alive := func(i int) bool { return probes[i] != nil }

	lifetime := temporal.Empty
	var bounds []temporal.Time
	for i := range probes {
		if !alive(i) {
			continue
		}
		p := probes[i].(wzProbe)
		lifetime = temporal.Span(lifetime, p.Lifetime)
		bounds = append(bounds, p.Bounds...)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	windows := spec.Window.Windows(lifetime, bounds)

	parts, _, serr := c.scatter(ctx, func(i int, _ *Worker) bool { return alive(i) }, func(ctx context.Context, w *Worker) (any, error) {
		return w.wzoomPartial(ctx, &spec, windows)
	})
	ok := 0
	for i := range parts {
		if alive(i) && parts[i] != nil {
			ok++
		}
	}
	if serr == nil {
		serr = perr
	}
	if err := c.degrade(st, ok, serr); err != nil {
		return nil, err
	}

	// Masters are disjoint across shards, and so are edge owners.
	out := core.NewHistories()
	for i := range parts {
		if alive(i) && parts[i] != nil {
			p := parts[i].(core.Histories)
			maps.Copy(out.V, p.V)
			maps.Copy(out.E, p.E)
		}
	}
	vs, es := out.WZoomFinish(spec)
	return c.finish(dctx, q, vs, es)
}

// runGather is the fallback for every other chain shape: collect the
// shards' raw base states (masters and owned edges — the lossless
// multiset), clipped and pruned by the leading range restriction when
// present, and run the unsharded operator chain over the merged graph.
func (c *Coordinator) runGather(ctx context.Context, dctx *dataflow.Context, q Query, st *Stats) (core.TGraph, error) {
	mFallbacks.Add(1)
	st.Fallback = true
	var include func(int, *Worker) bool
	if !q.Clip.IsEmpty() {
		include = func(_ int, w *Worker) bool { return w.Span().Overlaps(q.Clip) }
	}
	res, ok, serr := c.scatter(ctx, include, func(ctx context.Context, w *Worker) (any, error) {
		return w.states(ctx, q.Clip)
	})
	if err := c.degrade(st, ok, serr); err != nil {
		return nil, err
	}
	var vs []core.VertexTuple
	var es []core.EdgeTuple
	for _, r := range res {
		if r == nil {
			continue
		}
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
