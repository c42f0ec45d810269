// Package shard partitions a loaded temporal graph into N in-memory
// shards and serves zoom queries over them with an in-process
// scatter-gather coordinator. Each shard owns its own dataflow context
// and keeps its states per entity in a core.Histories partial. A
// coordinator never changes after NewFromStates: the serving layer
// answers a grown graph with a new coordinator split from it, so a
// query sees every shard at one version. Shards retain no results: the
// serving layer caches the merged body under its own byte budget. The
// coordinator fans a request out to every shard worker concurrently,
// gathers the per-shard partial results and re-reduces them across
// shard boundaries with the zoomstage kernels from internal/core — the
// same kernels the batch pipelines and the incremental views call — so
// the merged output is byte-identical (after the canonical coalesce +
// sort + encode the serving layer applies) to the unsharded run.
//
// # Placement
//
// There is one placement, the GraphX vertex cut: every state of an
// edge lands on the shard graphx.EdgePartition2D picks from its
// endpoints, every vertex is mastered on one shard (1D hash of its id)
// and mirrored — full state list — to each shard holding one of its
// edges, which bounds replication by 2*ceil(sqrt(P)).
//
// # Scatter protocol
//
// A chain whose first step is an aZoom (built-in aggregates only) is
// evaluated shard-side: each worker returns its per-Skolem-group
// contributing states (from its masters) and the redirected outputs of
// its local edges (RedirectEdge against the full endpoint state lists,
// masters plus mirrors); the coordinator concatenates the group lists
// and re-reduces each group with AZoomGroup — sound because the
// elementary-interval alignment happens only in the final reduce and
// every built-in aggregate is commutative and associative. A leading
// wZoom (representations VE and OG, where the batch path coalesces
// before windowing) runs in two phases: a probe gathers per-shard
// lifetimes (plus state boundary points when the window spec is
// change-based), the coordinator derives the global window relation
// once, and the second phase has each worker window its own entities
// (core.Histories.WZoom); the coordinator merges the disjoint outputs
// and removes dangling edges against the merged vertex outputs
// (core.Histories.WZoomFinish, the finish the incremental views
// call too), exactly as the batch path evaluates it globally. Every
// other chain — representation switches first, leading range steps,
// custom aggregates — falls back to gathering the shards' raw states
// (clipped to the leading range, when present) and running the
// unsharded operator chain over the losslessly merged graph; zoom
// outputs depend on inputs only up to coalesce-equivalence, so the
// fallback is byte-identical too.
//
// # Resilience and observability
//
// Each scatter leg runs under a deadline derived from the request
// budget (90% of the remaining budget, reserving the rest for the
// merge), inside its own span, with panics captured per leg. A scatter
// is all-or-nothing: the first failed leg cancels its siblings, and the
// request fails with a typed *dataflow.JobError (stage "shard.scatter",
// one TaskError per failed shard). Counters: shard.scatters,
// shard.legs, shard.leg_failures, shard.fallbacks, shard.groups_merged;
// histogram shard.leg_latency.
package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graphx"
)

// VertexCut is the shard placement: edges by graphx.EdgePartition2D,
// vertex masters by a 1D hash of the id. It is a pure function of the
// tuple and the shard count, so placement is deterministic across runs
// and processes.
type VertexCut struct{}

// vertexShard returns the master shard of a vertex: the 1D hash of its
// id, so a vertex's master is independent of its states.
func (VertexCut) vertexShard(id core.VertexID, n int) int {
	return graphx.EdgePartition1D{}.Partition(id, 0, n)
}

// edgeShard returns the owning shard of an edge state.
func (VertexCut) edgeShard(t core.EdgeTuple, n int) int {
	return graphx.EdgePartition2D{}.Partition(t.Src, t.Dst, n)
}

// ParseStrategy returns the placement named "EdgePartition2D" (or ""),
// the only one there is.
func ParseStrategy(name string) (VertexCut, error) {
	if name != "" && name != "EdgePartition2D" {
		return VertexCut{}, fmt.Errorf("shard: unknown strategy %q (the only one is EdgePartition2D)", name)
	}
	return VertexCut{}, nil
}

// Part is one shard's slice of a split graph: the vertex states it
// masters, the full state lists of vertices mirrored for its local
// edges, and the edge states it owns.
type Part struct {
	Masters []core.VertexTuple
	Mirrors []core.VertexTuple
	Edges   []core.EdgeTuple
}

// Split partitions the given states into n parts under the placement,
// which it returns unchanged. The split is lossless: every input state
// appears in exactly one part's Masters/Edges (Mirrors are replicas).
func Split(vs []core.VertexTuple, es []core.EdgeTuple, st VertexCut, n int) ([]Part, VertexCut) {
	if n < 1 {
		n = 1
	}
	parts := make([]Part, n)
	// byID collects each vertex's full state list for the mirrors: the
	// redirect kernel joins an edge against all states of both
	// endpoints, so partial mirrors would drop output states.
	byID := make(map[core.VertexID][]core.VertexTuple)
	for _, v := range vs {
		k := st.vertexShard(v.ID, n)
		parts[k].Masters = append(parts[k].Masters, v)
		byID[v.ID] = append(byID[v.ID], v)
	}
	for _, e := range es {
		k := st.edgeShard(e, n)
		parts[k].Edges = append(parts[k].Edges, e)
	}
	for k := range parts {
		seen := make(map[core.VertexID]bool)
		for _, e := range parts[k].Edges {
			for _, id := range [2]core.VertexID{e.Src, e.Dst} {
				if seen[id] {
					continue
				}
				seen[id] = true
				if st.vertexShard(id, n) != k {
					parts[k].Mirrors = append(parts[k].Mirrors, byID[id]...)
				}
			}
		}
	}
	return parts, st
}
