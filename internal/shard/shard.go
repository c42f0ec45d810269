// Package shard partitions a loaded temporal graph into N in-memory
// shards and serves zoom queries over them with an in-process
// scatter-gather coordinator. Each shard owns its own dataflow context
// and keeps its states per entity in a core.Histories partial. A
// coordinator never changes after NewFromStates: the serving layer
// answers a grown graph with a new coordinator split from it, so a
// query sees every shard at one version. Shards retain no results: the
// serving layer caches the merged body under its own byte budget. The
// coordinator fans a request out to every (non-pruned) shard worker
// concurrently, gathers the per-shard partial results and re-reduces
// them across shard boundaries with the zoomstage kernels from
// internal/core — the same kernels the batch pipelines and the
// incremental views call — so the merged output is byte-identical
// (after the canonical coalesce + sort + encode the serving layer
// applies) to the unsharded run.
//
// # Placement
//
// Two families of Strategy are provided. VertexCut wraps the fixed
// graphx edge-partition strategies: every state of an edge lands on one
// shard (the strategies hash only the endpoints), every vertex is
// mastered on one shard (1D hash of its id) and mirrored — full state
// list — to each shard holding one of its edges, which bounds
// replication the GraphX way (2*ceil(sqrt(P)) for EdgePartition2D).
// TimeRange instead slices the graph's lifetime into N contiguous
// ranges and assigns whole states by the range containing their start
// time: entities span shards, so queries cannot be evaluated per shard,
// but range-restricted chains prune the shards whose data span does not
// overlap the clip — the wZoom-heavy "zoomed-out dashboard" workload.
//
// # Scatter protocol
//
// A chain whose first step is an aZoom (built-in aggregates only) over
// a vertex-cut layout is evaluated shard-side: each worker returns its
// per-Skolem-group contributing states (from its masters) and the
// redirected outputs of its local edges (RedirectEdge against the full
// endpoint state lists, masters plus mirrors); the coordinator
// concatenates the group lists and re-reduces each group with AZoomGroup
// — sound because the elementary-interval alignment happens only in the
// final reduce and every built-in aggregate is commutative and
// associative. A leading wZoom (representations VE and OG, where the
// batch path coalesces before windowing) runs in two phases: a probe
// gathers per-shard lifetimes (plus state boundary points when the
// window spec is change-based), the coordinator derives the global
// window relation once, and the second phase has each worker window its
// own entities (core.Histories.WZoom); the coordinator merges the
// disjoint outputs and applies the dangling-edge semijoin against the
// merged vertex outputs (core.Histories.WZoomFinish, the finish the
// incremental views call too), exactly as the batch path evaluates it
// globally. Every other chain — TimeRange
// layouts, representation switches first, leading range steps, custom
// aggregates — falls back to gathering the shards' raw states (clipped
// and pruned by the leading range, when present) and running the
// unsharded operator chain over the losslessly merged graph; zoom
// outputs depend on inputs only up to coalesce-equivalence, so the
// fallback is byte-identical too.
//
// # Resilience and observability
//
// Each scatter leg runs under a deadline derived from the request
// budget (90% of the remaining budget, reserving the rest for the
// merge), inside its own span, with panics captured per leg. Failed
// legs aggregate into a typed *dataflow.JobError (stage
// "shard.scatter", one TaskError per failed shard); in partial-result
// mode the coordinator instead merges the k surviving legs and reports
// k/n so the serving layer can answer degraded. Counters:
// shard.scatters, shard.legs, shard.leg_failures, shard.partial_merges,
// shard.fallbacks, shard.groups_merged; histogram shard.leg_latency.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graphx"
	"repro/internal/temporal"
)

// Strategy places vertex and edge states on shards. n is the shard
// count; implementations must be pure functions of the tuple and n so
// placement is deterministic across runs and processes.
type Strategy interface {
	// Name is the strategy's stable wire name.
	Name() string
	// VertexShard returns the master shard of a vertex state. All
	// states of one vertex must map to one shard for EntityLocal
	// strategies.
	VertexShard(t core.VertexTuple, n int) int
	// EdgeShard returns the owning shard of an edge state.
	EdgeShard(t core.EdgeTuple, n int) int
	// EntityLocal reports whether every entity's full state list lands
	// on a single shard (and edge endpoints are mirrored there), which
	// is what enables shard-side zoom evaluation.
	EntityLocal() bool
}

// VertexCut shards edges with a graphx partition strategy and masters
// each vertex by a 1D hash of its id. Entity state lists stay local.
type VertexCut struct {
	// Edges places edge states; nil selects EdgePartition2D.
	Edges graphx.PartitionStrategy
}

func (s VertexCut) edges() graphx.PartitionStrategy {
	if s.Edges == nil {
		return graphx.EdgePartition2D{}
	}
	return s.Edges
}

// Name implements Strategy.
func (s VertexCut) Name() string { return s.edges().String() }

// VertexShard implements Strategy: the 1D hash of the vertex id, so a
// vertex's master is independent of its states.
func (VertexCut) VertexShard(t core.VertexTuple, n int) int {
	return graphx.EdgePartition1D{}.Partition(t.ID, 0, n)
}

// EdgeShard implements Strategy.
func (s VertexCut) EdgeShard(t core.EdgeTuple, n int) int {
	return s.edges().Partition(t.Src, t.Dst, n)
}

// EntityLocal implements Strategy.
func (VertexCut) EntityLocal() bool { return true }

// TimeRange slices the graph lifetime into contiguous ranges and
// assigns whole states by the range containing their start time. The
// split is lossless (no clipping at slice boundaries — a state may
// extend past its slice), so entities span shards and all queries merge
// at the coordinator; range-restricted chains prune non-overlapping
// shards instead.
type TimeRange struct {
	// Bounds are the n-1 ascending cut points between the n slices.
	// Empty bounds are derived from the data at Split time.
	Bounds []temporal.Time
}

// TimeRangeName is TimeRange's wire name.
const TimeRangeName = "TimeRange"

// Name implements Strategy.
func (TimeRange) Name() string { return TimeRangeName }

// slice returns the index of the range containing t.
func (s TimeRange) slice(t temporal.Time, n int) int {
	i := sort.Search(len(s.Bounds), func(i int) bool { return t < s.Bounds[i] })
	if i >= n {
		i = n - 1
	}
	return i
}

// VertexShard implements Strategy.
func (s TimeRange) VertexShard(t core.VertexTuple, n int) int {
	return s.slice(t.Interval.Start, n)
}

// EdgeShard implements Strategy.
func (s TimeRange) EdgeShard(t core.EdgeTuple, n int) int {
	return s.slice(t.Interval.Start, n)
}

// EntityLocal implements Strategy.
func (TimeRange) EntityLocal() bool { return false }

// ParseStrategy maps a wire name to a Strategy. Empty selects the
// default vertex cut (EdgePartition2D). TimeRange bounds are derived
// from the data when splitting.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "EdgePartition2D", "2d":
		return VertexCut{Edges: graphx.EdgePartition2D{}}, nil
	case "EdgePartition1D", "1d":
		return VertexCut{Edges: graphx.EdgePartition1D{}}, nil
	case "RandomVertexCut", "random":
		return VertexCut{Edges: graphx.RandomVertexCut{}}, nil
	case TimeRangeName, "timerange", "time-range":
		return TimeRange{}, nil
	default:
		return nil, fmt.Errorf("shard: unknown strategy %q (want EdgePartition2D|EdgePartition1D|RandomVertexCut|TimeRange)", name)
	}
}

// Part is one shard's slice of a split graph: the vertex states it
// masters, the full state lists of vertices mirrored for its local
// edges (EntityLocal strategies only), and the edge states it owns.
type Part struct {
	Masters []core.VertexTuple
	Mirrors []core.VertexTuple
	Edges   []core.EdgeTuple
}

// Split partitions the given states into n parts under the strategy.
// The returned strategy is the bound form (TimeRange with derived
// bounds); pass it, not the input, to the coordinator. The split is
// lossless: every input state appears in exactly one part's
// Masters/Edges (Mirrors are replicas).
func Split(vs []core.VertexTuple, es []core.EdgeTuple, st Strategy, n int) ([]Part, Strategy) {
	if n < 1 {
		n = 1
	}
	if tr, ok := st.(TimeRange); ok && len(tr.Bounds) == 0 {
		st = TimeRange{Bounds: deriveBounds(vs, es, n)}
	}
	parts := make([]Part, n)
	for _, v := range vs {
		k := st.VertexShard(v, n)
		parts[k].Masters = append(parts[k].Masters, v)
	}
	for _, e := range es {
		k := st.EdgeShard(e, n)
		parts[k].Edges = append(parts[k].Edges, e)
	}
	if st.EntityLocal() {
		// Mirror the full state list of every foreign endpoint: the
		// redirect kernel joins an edge against all states of both
		// endpoints, so partial mirrors would drop output states.
		byID := make(map[core.VertexID][]core.VertexTuple)
		for _, v := range vs {
			byID[v.ID] = append(byID[v.ID], v)
		}
		for k := range parts {
			seen := make(map[core.VertexID]bool)
			for _, e := range parts[k].Edges {
				for _, id := range [2]core.VertexID{e.Src, e.Dst} {
					if seen[id] {
						continue
					}
					seen[id] = true
					states := byID[id]
					if len(states) == 0 || st.VertexShard(states[0], n) == k {
						continue
					}
					parts[k].Mirrors = append(parts[k].Mirrors, states...)
				}
			}
		}
	}
	return parts, st
}

// deriveBounds cuts the states' lifetime into n equal slices.
func deriveBounds(vs []core.VertexTuple, es []core.EdgeTuple, n int) []temporal.Time {
	life := temporal.Empty
	for _, v := range vs {
		life = temporal.Span(life, v.Interval)
	}
	for _, e := range es {
		life = temporal.Span(life, e.Interval)
	}
	bounds := make([]temporal.Time, 0, n-1)
	if life.IsEmpty() || n < 2 {
		return bounds
	}
	span := life.Duration()
	for i := 1; i < n; i++ {
		bounds = append(bounds, life.Start+temporal.Time(int64(span)*int64(i)/int64(n)))
	}
	return bounds
}
