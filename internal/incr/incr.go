// Package incr maintains zoom results as materialized views: instead
// of re-running aZoom^T/wZoom^T after every WAL append, a view maps
// each typed tuple delta (wal.Delta) to the Skolem groups (aZoom) or
// tumbling windows (wZoom) it can affect and re-runs only the
// corresponding stage kernel from internal/core — AZoomGroup,
// RedirectEdge, and the per-entity wZoom of core.Histories, the partial
// the shard workers evaluate too — over the touched groups,
// re-coalescing just those entities. The batch pipelines call the same
// kernels, so a patched view is byte-identical (after canonical
// coalesce + sort + encode) to a from-scratch zoom over the appended
// graph.
//
// # Delta → group mapping
//
// An aZoom view routes a vertex delta to the Skolem group of the new
// state (the group gains an elementary-interval boundary, so the whole
// group re-reduces — still group-scoped work) and to the redirected
// outputs of every edge incident to that vertex; an edge delta
// re-redirects only that input edge. A wZoom view routes a delta to
// the windows overlapping its interval and re-reduces the touched
// entity over those windows from its coalesced base states.
//
// # Fallback rules
//
// Non-decomposable cases detect themselves and fall back to scoped
// recomputation:
//
//   - a delta that extends the graph lifetime moves the clamped final
//     unit window (and may add windows): every entity with states
//     overlapping the changed window range is recomputed, counted in
//     incr.windows_recomputed;
//   - a delta that extends the lifetime backwards (earlier start)
//     shifts every unit window boundary: the view rebuilds fully,
//     counted in incr.fallback_full;
//   - change-based window specs derive their boundaries from the state
//     intervals themselves, so any delta may restructure the window
//     relation: such views always rebuild fully (declared by the
//     window spec's UsesChangePoints capability method, conservatively
//     assumed true for spec types that do not implement it);
//   - `any`/first/last attribute resolution is handled without
//     fallback because the touched (entity, window) group re-reduces
//     from all base states, sorted deterministically by state start.
//
// # Atomicity
//
// Apply stages every patched structure first and commits with plain
// map writes only after the last fallible step (including the
// fault-injection hook). An injected fault mid-patch therefore leaves
// the view exactly at its pre-delta state — concurrent readers see the
// pre-delta or post-delta result, never a half-patched one. This is
// the contract TestChaosIncrMaintenance asserts.
//
// # Metrics
//
// incr.applies, incr.groups_patched, incr.windows_recomputed,
// incr.fallback_full, incr.views_built (counters) and
// incr.patch_latency (histogram) describe maintenance work; the serving layer adds qcache.patches for
// cache bodies refreshed in place.
package incr

import (
	"errors"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage/wal"
)

// Stats reports what one Apply call did.
type Stats struct {
	// GroupsPatched counts aZoom Skolem groups and input edges whose
	// outputs were re-reduced.
	GroupsPatched int
	// WindowsRecomputed counts (entity, window) groups a wZoom view
	// re-reduced.
	WindowsRecomputed int
	// FallbackFull is true when the view rebuilt its materialized
	// state from scratch instead of patching.
	FallbackFull bool
}

// Options configures a view.
type Options struct {
	// Hook is the fault-injection point, called at the incr.apply.*
	// sites before any state is committed; a non-nil error aborts the
	// Apply with the view untouched. Wired to faults.Injector in chaos
	// tests and to serve.Config.FaultHook in the serving layer.
	Hook func(site string) error
}

// View is a maintainable materialized zoom result. Apply folds a batch
// of acked WAL deltas into the view; Result snapshots the current
// output as uncoalesced state tuples (the same shape the batch zoom
// emits, ready for core.NewVE / Convert / Coalesce). Apply calls must
// be serialized by the caller (the serving layer applies under its
// per-graph lock); Result is safe to call concurrently with Apply.
type View interface {
	Apply(deltas []wal.Delta) (Stats, error)
	Result() ([]core.VertexTuple, []core.EdgeTuple)
}

// ErrUnsupported reports a zoom spec a view cannot maintain
// incrementally (for example a custom aggregate whose combine function
// the view cannot verify to be commutative and associative).
var ErrUnsupported = errors.New("incr: spec not incrementally maintainable")

// hookErr runs the optional fault hook at site.
func (o Options) hookErr(site string) error {
	if o.Hook == nil {
		return nil
	}
	return o.Hook(site)
}

// metrics are the package-wide obs instruments; obs instruments are
// cheap interned lookups, but binding them once keeps Apply hot paths
// free of map traffic.
var (
	mApplies   = obs.Default().Counter("incr.applies")
	mGroups    = obs.Default().Counter("incr.groups_patched")
	mWindows   = obs.Default().Counter("incr.windows_recomputed")
	mFallback  = obs.Default().Counter("incr.fallback_full")
	mViewBuild = obs.Default().Counter("incr.views_built")
	mLatency   = obs.Default().Histogram("incr.patch_latency")
)

// record publishes one Apply's stats.
func (s Stats) record() {
	mApplies.Add(1)
	mGroups.Add(int64(s.GroupsPatched))
	mWindows.Add(int64(s.WindowsRecomputed))
	if s.FallbackFull {
		mFallback.Add(1)
	}
}

// stage appends it to k's staged history. The first touch starts from
// the committed history with its capacity clipped, so the append
// copies it and the committed array is never written before commit.
func stage[K comparable](staged, committed map[K][]core.HistoryItem, k K, it core.HistoryItem) {
	h, ok := staged[k]
	if !ok {
		h = slices.Clip(committed[k])
	}
	staged[k] = append(h, it)
}

// latest returns k's staged history, or its committed one.
func latest[K comparable](staged, committed map[K][]core.HistoryItem, k K) []core.HistoryItem {
	if h, ok := staged[k]; ok {
		return h
	}
	return committed[k]
}
