package graphx

import (
	"testing"

	"repro/internal/dataflow"
)

func testCtx() *dataflow.Context {
	return dataflow.NewContext(dataflow.WithParallelism(4), dataflow.WithDefaultPartitions(4))
}

// chainGraph builds 0 -> 1 -> 2 -> ... -> n-1.
func chainGraph(ctx *dataflow.Context, n int) *Graph[string, int] {
	vs := make([]Vertex[string], n)
	for i := range vs {
		vs[i] = Vertex[string]{ID: VertexID(i), Attr: "v"}
	}
	es := make([]Edge[int], 0, n-1)
	for i := 0; i+1 < n; i++ {
		es = append(es, Edge[int]{ID: EdgeID(i), Src: VertexID(i), Dst: VertexID(i + 1), Attr: i})
	}
	return New(ctx, vs, es, nil)
}

func TestNewAndCounts(t *testing.T) {
	g := chainGraph(testCtx(), 5)
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Errorf("counts: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.Strategy() == nil {
		t.Error("nil strategy must default")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateDetectsDangling(t *testing.T) {
	ctx := testCtx()
	g := New(ctx,
		[]Vertex[string]{{ID: 1, Attr: "a"}},
		[]Edge[int]{{ID: 1, Src: 1, Dst: 99}},
		nil)
	if err := g.Validate(); err == nil {
		t.Error("want error for dangling edge")
	}
}

func TestTriplets(t *testing.T) {
	ctx := testCtx()
	g := New(ctx,
		[]Vertex[string]{{ID: 1, Attr: "ann"}, {ID: 2, Attr: "bob"}},
		[]Edge[string]{{ID: 10, Src: 1, Dst: 2, Attr: "co-author"}, {ID: 11, Src: 2, Dst: 77, Attr: "dangling"}},
		nil)
	trips := Triplets(g).Collect()
	if len(trips) != 1 {
		t.Fatalf("triplets = %d, want 1 (dangling dropped)", len(trips))
	}
	tr := trips[0]
	if tr.SrcAttr != "ann" || tr.DstAttr != "bob" || tr.Edge.Attr != "co-author" {
		t.Errorf("triplet = %+v", tr)
	}
}

func TestPartitionStrategies(t *testing.T) {
	for _, s := range []PartitionStrategy{EdgePartition1D{}, EdgePartition2D{}} {
		if s.String() == "" {
			t.Errorf("empty strategy name")
		}
		seen := map[int]bool{}
		for src := VertexID(0); src < 40; src++ {
			for dst := VertexID(0); dst < 5; dst++ {
				p := s.Partition(src, dst, 8)
				if p < 0 || p >= 8 {
					t.Fatalf("%s: partition %d out of range", s, p)
				}
				seen[p] = true
				if p != s.Partition(src, dst, 8) {
					t.Fatalf("%s: nondeterministic", s)
				}
			}
		}
		if len(seen) < 4 {
			t.Errorf("%s: poor spread, only %d/8 partitions used", s, len(seen))
		}
	}
}

func TestEdgePartition1DColocatesBySource(t *testing.T) {
	s := EdgePartition1D{}
	for dst := VertexID(0); dst < 50; dst++ {
		if s.Partition(7, dst, 8) != s.Partition(7, 0, 8) {
			t.Fatal("EdgePartition1D must colocate by source")
		}
	}
}

func TestFromDatasets(t *testing.T) {
	ctx := testCtx()
	v := dataflow.Parallelize(ctx, []Vertex[int]{{ID: 1, Attr: 5}}, 1)
	e := dataflow.Parallelize(ctx, []Edge[int]{}, 1)
	g := FromDatasets(v, e, nil)
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Errorf("FromDatasets counts wrong")
	}
}
