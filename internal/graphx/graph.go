// Package graphx implements a static property-graph layer on top of the
// dataflow engine — the substitute this reproduction uses for Apache
// Spark's GraphX library, on which the paper's Section 4 implementation
// builds its graph-shaped representations. Like GraphX it offers
// vertex-cut edge partitioning strategies and a materialised triplet
// view built by vertex-mirroring. The RG, OG and OGC representations of
// a TGraph are built on this layer; VE bypasses it and works on raw
// datasets, exactly as in the paper.
package graphx

import (
	"fmt"

	"repro/internal/dataflow"
)

// VertexID identifies a vertex. The paper uses long identifiers for
// interoperability with GraphX; we do the same.
type VertexID int64

// EdgeID identifies an edge. TGraph is a multigraph, so edges carry
// identity separate from their endpoints.
type EdgeID int64

// Vertex is a vertex with an attribute of type VD.
type Vertex[VD any] struct {
	ID   VertexID
	Attr VD
}

// Edge is a directed edge with an attribute of type ED.
type Edge[ED any] struct {
	ID   EdgeID
	Src  VertexID
	Dst  VertexID
	Attr ED
}

// Triplet is an edge together with its source and destination vertex
// attributes — GraphX's EdgeTriplet view.
type Triplet[VD, ED any] struct {
	Edge    Edge[ED]
	SrcAttr VD
	DstAttr VD
}

// Graph is an immutable property graph distributed over the dataflow
// engine: a vertex dataset and an edge dataset partitioned by a
// vertex-cut strategy.
type Graph[VD, ED any] struct {
	vertices *dataflow.Dataset[Vertex[VD]]
	edges    *dataflow.Dataset[Edge[ED]]
	strategy PartitionStrategy
}

// New builds a graph from vertex and edge slices, partitioning edges
// with the given strategy (nil selects EdgePartition2D, GraphX's
// default for large graphs).
func New[VD, ED any](ctx *dataflow.Context, vertices []Vertex[VD], edges []Edge[ED], strategy PartitionStrategy) *Graph[VD, ED] {
	if strategy == nil {
		strategy = EdgePartition2D{}
	}
	v := dataflow.Parallelize(ctx, vertices, 0)
	e := partitionEdges(ctx, edges, strategy, ctx.DefaultPartitions())
	return &Graph[VD, ED]{vertices: v, edges: e, strategy: strategy}
}

// FromDatasets wraps existing datasets as a graph without
// repartitioning.
func FromDatasets[VD, ED any](v *dataflow.Dataset[Vertex[VD]], e *dataflow.Dataset[Edge[ED]], strategy PartitionStrategy) *Graph[VD, ED] {
	if strategy == nil {
		strategy = EdgePartition2D{}
	}
	return &Graph[VD, ED]{vertices: v, edges: e, strategy: strategy}
}

// Context returns the execution context.
func (g *Graph[VD, ED]) Context() *dataflow.Context { return g.vertices.Context() }

// Rebind returns a view of g whose vertex and edge datasets execute on
// ctx, sharing the partitions unchanged. See dataflow.Rebind: this is
// how concurrent callers attach independent cancellation scopes to one
// loaded graph.
func Rebind[VD, ED any](g *Graph[VD, ED], ctx *dataflow.Context) *Graph[VD, ED] {
	if g == nil {
		return nil
	}
	return &Graph[VD, ED]{
		vertices: dataflow.Rebind(g.vertices, ctx),
		edges:    dataflow.Rebind(g.edges, ctx),
		strategy: g.strategy,
	}
}

// Vertices returns the vertex dataset.
func (g *Graph[VD, ED]) Vertices() *dataflow.Dataset[Vertex[VD]] { return g.vertices }

// Edges returns the edge dataset.
func (g *Graph[VD, ED]) Edges() *dataflow.Dataset[Edge[ED]] { return g.edges }

// Strategy returns the edge partition strategy.
func (g *Graph[VD, ED]) Strategy() PartitionStrategy { return g.strategy }

// NumVertices returns the vertex count.
func (g *Graph[VD, ED]) NumVertices() int { return g.vertices.Count() }

// NumEdges returns the edge count.
func (g *Graph[VD, ED]) NumEdges() int { return g.edges.Count() }

// routingTable materialises the vertex attributes once so that each
// edge partition can mirror the vertices it references — the
// "vertex-mirroring and multicast join" GraphX uses to build the
// triplet view. The returned map is shared read-only across tasks.
func (g *Graph[VD, ED]) routingTable() map[VertexID]VD {
	table := make(map[VertexID]VD, g.vertices.Count())
	for _, part := range g.vertices.Partitions() {
		for _, v := range part {
			table[v.ID] = v.Attr
		}
	}
	return table
}

// Triplets materialises the triplet view: every edge joined with the
// attributes of its endpoints. Edges referencing missing vertices are
// dropped (the graph is then not well-formed; see Validate).
func Triplets[VD, ED any](g *Graph[VD, ED]) *dataflow.Dataset[Triplet[VD, ED]] {
	table := g.routingTable()
	return dataflow.MapPartitions(g.edges, func(_ int, edges []Edge[ED]) []Triplet[VD, ED] {
		out := make([]Triplet[VD, ED], 0, len(edges))
		for _, e := range edges {
			src, ok1 := table[e.Src]
			dst, ok2 := table[e.Dst]
			if !ok1 || !ok2 {
				continue
			}
			out = append(out, Triplet[VD, ED]{Edge: e, SrcAttr: src, DstAttr: dst})
		}
		return out
	})
}

// Validate returns an error if any edge references a missing vertex.
func (g *Graph[VD, ED]) Validate() error {
	table := g.routingTable()
	var bad []EdgeID
	for _, part := range g.edges.Partitions() {
		for _, e := range part {
			if _, ok := table[e.Src]; !ok {
				bad = append(bad, e.ID)
				continue
			}
			if _, ok := table[e.Dst]; !ok {
				bad = append(bad, e.ID)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("graphx: %d edges reference missing vertices (first: %d)", len(bad), bad[0])
	}
	return nil
}
