package graphx

import (
	"math"
	"testing"
)

// testEdges yields n deterministic pseudo-random edges via a small LCG
// so the distribution tests are reproducible across runs and machines.
func testEdges(n int) [][2]VertexID {
	out := make([][2]VertexID, n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state
	}
	for i := range out {
		out[i] = [2]VertexID{VertexID(next() % 100000), VertexID(next() % 100000)}
	}
	return out
}

// TestPartitionUniformity chi-square tests every strategy across
// numParts 2..17 — non-squares included, the range the historical
// EdgePartition2D modulo-wrap skewed by up to 2x.
func TestPartitionUniformity(t *testing.T) {
	edges := testEdges(40000)
	strategies := []PartitionStrategy{EdgePartition1D{}, EdgePartition2D{}}
	for _, s := range strategies {
		for numParts := 2; numParts <= 17; numParts++ {
			counts := make([]int, numParts)
			for _, e := range edges {
				p := s.Partition(e[0], e[1], numParts)
				if p < 0 || p >= numParts {
					t.Fatalf("%s: partition %d out of range [0,%d)", s, p, numParts)
				}
				counts[p]++
			}
			expected := float64(len(edges)) / float64(numParts)
			chi2 := 0.0
			for _, c := range counts {
				d := float64(c) - expected
				chi2 += d * d / expected
			}
			// Critical value for p=0.001 at df=16 is 39.25; the old
			// wrapped 2D grid scores in the thousands here. The inputs
			// are deterministic, so this cannot flake.
			if chi2 > 60 {
				t.Errorf("%s numParts=%d: chi-square %.1f exceeds 60 (counts %v)", s, numParts, chi2, counts)
			}
		}
	}
}

// TestEdgePartition2DReplicationBound asserts the documented vertex-cut
// guarantee for all shard counts: every vertex is mirrored to at most
// 2*ceil(sqrt(P)) partitions. The pre-fix modulo wrap broke this for
// non-perfect-square P by folding extra grid cells onto low partitions.
func TestEdgePartition2DReplicationBound(t *testing.T) {
	edges := testEdges(40000)
	s := EdgePartition2D{}
	for numParts := 2; numParts <= 17; numParts++ {
		seen := make(map[VertexID]map[int]struct{})
		for _, e := range edges {
			p := s.Partition(e[0], e[1], numParts)
			for _, v := range e {
				m, ok := seen[v]
				if !ok {
					m = make(map[int]struct{})
					seen[v] = m
				}
				m[p] = struct{}{}
			}
		}
		bound := 2 * int(math.Ceil(math.Sqrt(float64(numParts))))
		for v, m := range seen {
			if len(m) > bound {
				t.Fatalf("numParts=%d: vertex %d replicated to %d partitions, bound %d", numParts, v, len(m), bound)
			}
		}
	}
}

// TestPartitionGolden pins exact placements so any change to the
// hashing or grid layout — which would silently reshuffle every
// sharded storage directory — fails loudly. Values were captured from
// the fixed implementation; the 2D entries for perfect squares (4, 9,
// 16) also pin the historical row*side+col placement.
func TestPartitionGolden(t *testing.T) {
	cases := []struct {
		src, dst       VertexID
		numParts       int
		want1D, want2D int
	}{
		{1, 2, 2, 1, 1},
		{1, 2, 3, 1, 0},
		{7, 11, 4, 0, 1},
		{7, 11, 5, 4, 4},
		{42, 99, 7, 3, 4},
		{100, 200, 9, 6, 0},
		{100, 200, 12, 0, 0},
		{12345, 67890, 13, 0, 2},
		{12345, 67890, 16, 1, 6},
		{5, 5, 17, 7, 4},
	}
	for _, c := range cases {
		if got := (EdgePartition1D{}).Partition(c.src, c.dst, c.numParts); got != c.want1D {
			t.Errorf("1D(%d,%d,%d) = %d, want %d", c.src, c.dst, c.numParts, got, c.want1D)
		}
		if got := (EdgePartition2D{}).Partition(c.src, c.dst, c.numParts); got != c.want2D {
			t.Errorf("2D(%d,%d,%d) = %d, want %d", c.src, c.dst, c.numParts, got, c.want2D)
		}
	}
}

// TestEdgePartition2DPerfectSquareStability asserts that for perfect
// squares the fixed implementation reproduces the classic GraphX
// side x side placement exactly, so existing perfect-square layouts
// stay valid.
func TestEdgePartition2DPerfectSquareStability(t *testing.T) {
	edges := testEdges(2000)
	for _, numParts := range []int{1, 4, 9, 16} {
		side := int(math.Sqrt(float64(numParts)))
		for _, e := range edges {
			row := int(mix64(uint64(e[0])) % uint64(side))
			col := int(mix64(uint64(e[1])) % uint64(side))
			want := row*side + col
			if got := (EdgePartition2D{}).Partition(e[0], e[1], numParts); got != want {
				t.Fatalf("numParts=%d edge (%d,%d): got %d, want legacy %d", numParts, e[0], e[1], got, want)
			}
		}
	}
}
