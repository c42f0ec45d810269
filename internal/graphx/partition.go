package graphx

import (
	"math"

	"repro/internal/dataflow"
)

// PartitionStrategy assigns each edge to a partition. GraphX uses
// vertex-cut partitioning: edges never span partitions, vertices are
// mirrored to every partition holding one of their edges, which bounds
// communication for aggregations along edges.
type PartitionStrategy interface {
	// Partition returns the partition for an edge among numParts
	// partitions.
	Partition(src, dst VertexID, numParts int) int
	String() string
}

// mix64 is a splitmix64-style finalizer giving a well-distributed hash
// of a vertex identifier; all strategies share it so placements are
// deterministic across runs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EdgePartition1D assigns edges by hashing the source vertex, so all
// out-edges of a vertex colocate. Skewed for high-out-degree hubs.
type EdgePartition1D struct{}

// Partition implements PartitionStrategy.
func (EdgePartition1D) Partition(src, _ VertexID, numParts int) int {
	return int(mix64(uint64(src)) % uint64(numParts))
}

func (EdgePartition1D) String() string { return "EdgePartition1D" }

// EdgePartition2D arranges partitions in a grid of R = ceil(sqrt(P))
// rows and assigns edge (s, d) to a cell determined by (hash(s),
// hash(d)). A source vertex is mirrored only within one row and a
// destination vertex to at most one cell per row, so each vertex lands
// on at most R + ceil(P/R) <= 2*ceil(sqrt(P)) partitions — GraphX's
// bounded-replication guarantee.
//
// When P is a perfect square the grid is exactly side x side and the
// placement matches the classic GraphX scheme (row*side + col). For
// other P the grid is ragged: R rows whose widths differ by at most
// one (P%R rows of width ceil(P/R), the rest of width floor(P/R)),
// with the row drawn from hash(s) weighted by row width so every cell
// — and therefore every partition — receives 1/P of the edge mass.
// (A naive (row*side+col) % numParts wrap folds the out-of-range grid
// cells onto low-numbered partitions, skewing load up to 2x.)
type EdgePartition2D struct{}

// Partition implements PartitionStrategy.
func (EdgePartition2D) Partition(src, dst VertexID, numParts int) int {
	if numParts < 1 {
		return 0
	}
	rows := int(math.Ceil(math.Sqrt(float64(numParts))))
	if rows*rows == numParts {
		// Perfect square: keep the historical side x side placement
		// byte-for-byte stable.
		row := int(mix64(uint64(src)) % uint64(rows))
		col := int(mix64(uint64(dst)) % uint64(rows))
		return row*rows + col
	}
	// Ragged grid: "extra" rows of width base+1 precede rows of width
	// base. Rows are chosen with probability proportional to their
	// width via a single uniform draw in [0, numParts), so each cell
	// carries exactly 1/numParts of the edge mass.
	base := numParts / rows
	extra := numParts % rows
	wide := extra * (base + 1)
	h := int(mix64(uint64(src)) % uint64(numParts))
	var offset, width int
	if h < wide {
		row := h / (base + 1)
		offset = row * (base + 1)
		width = base + 1
	} else {
		row := (h - wide) / base
		offset = wide + row*base
		width = base
	}
	col := int(mix64(uint64(dst)) % uint64(width))
	return offset + col
}

func (EdgePartition2D) String() string { return "EdgePartition2D" }

// partitionEdges distributes edges over numParts partitions with the
// given strategy.
func partitionEdges[ED any](ctx *dataflow.Context, edges []Edge[ED], strategy PartitionStrategy, numParts int) *dataflow.Dataset[Edge[ED]] {
	if numParts < 1 {
		numParts = 1
	}
	parts := make([][]Edge[ED], numParts)
	for _, e := range edges {
		p := strategy.Partition(e.Src, e.Dst, numParts)
		parts[p] = append(parts[p], e)
	}
	return dataflow.FromPartitions(ctx, parts)
}
