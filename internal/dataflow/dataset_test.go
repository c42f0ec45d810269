package dataflow

import (
	"cmp"
	"reflect"
	"sort"
	"testing"
)

func testCtx() *Context {
	return NewContext(WithParallelism(4), WithDefaultPartitions(4))
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func TestParallelizePartitioning(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, ints(10), 3)
	if d.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", d.NumPartitions())
	}
	if d.Count() != 10 {
		t.Errorf("Count = %d, want 10", d.Count())
	}
	if got := sorted(d.Collect()); !reflect.DeepEqual(got, ints(10)) {
		t.Errorf("Collect = %v", got)
	}
}

func TestParallelizeMorePartitionsThanData(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, ints(2), 8)
	if d.NumPartitions() > 2 {
		t.Errorf("NumPartitions = %d, want <= 2", d.NumPartitions())
	}
	if d.Count() != 2 {
		t.Errorf("Count = %d", d.Count())
	}
	e := Parallelize[int](ctx, nil, 4)
	if e.Count() != 0 || e.NumPartitions() != 1 {
		t.Errorf("empty parallelize: count=%d parts=%d", e.Count(), e.NumPartitions())
	}
}

func TestParallelizeDefaultPartitions(t *testing.T) {
	ctx := NewContext(WithParallelism(2), WithDefaultPartitions(5))
	d := Parallelize(ctx, ints(100), 0)
	if d.NumPartitions() != 5 {
		t.Errorf("NumPartitions = %d, want default 5", d.NumPartitions())
	}
}

func TestFromPartitionsAndEmpty(t *testing.T) {
	ctx := testCtx()
	d := FromPartitions(ctx, [][]int{{1, 2}, {3}})
	if d.Count() != 3 || d.NumPartitions() != 2 {
		t.Errorf("FromPartitions: count=%d parts=%d", d.Count(), d.NumPartitions())
	}
	e := Empty[string](ctx)
	if e.Count() != 0 || e.NumPartitions() != 1 {
		t.Errorf("Empty: count=%d parts=%d", e.Count(), e.NumPartitions())
	}
	f := FromPartitions[int](ctx, nil)
	if f.NumPartitions() != 1 {
		t.Errorf("FromPartitions(nil) should normalize to 1 partition")
	}
}

func TestMap(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, ints(100), 7)
	got := sorted(Map(d, func(x int) int { return x * 2 }).Collect())
	want := make([]int, 100)
	for i := range want {
		want[i] = 2 * i
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Map result mismatch")
	}
}

func TestFlatMap(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, []int{1, 2, 3}, 2)
	got := sorted(FlatMap(d, func(x int) []int {
		out := make([]int, x)
		for i := range out {
			out[i] = x
		}
		return out
	}).Collect())
	want := []int{1, 2, 2, 3, 3, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FlatMap = %v, want %v", got, want)
	}
}

func TestFilter(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, ints(20), 3)
	got := sorted(d.Filter(func(x int) bool { return x%2 == 0 }).Collect())
	if len(got) != 10 || got[0] != 0 || got[9] != 18 {
		t.Errorf("Filter = %v", got)
	}
}

func TestMapPartitions(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, ints(10), 4)
	sums := MapPartitions(d, func(_ int, recs []int) []int {
		s := 0
		for _, r := range recs {
			s += r
		}
		return []int{s}
	})
	total := 0
	for _, s := range sums.Collect() {
		total += s
	}
	if total != 45 {
		t.Errorf("partition sums total %d, want 45", total)
	}
	if sums.NumPartitions() != 4 {
		t.Errorf("MapPartitions must preserve partitioning")
	}
}

func TestUnion(t *testing.T) {
	ctx := testCtx()
	a := Parallelize(ctx, []int{1, 2}, 2)
	b := Parallelize(ctx, []int{3}, 1)
	u := Union(a, b)
	if u.Count() != 3 || u.NumPartitions() != 3 {
		t.Errorf("Union: count=%d parts=%d", u.Count(), u.NumPartitions())
	}
}

func TestMetrics(t *testing.T) {
	ctx := testCtx()
	ctx.ResetMetrics()
	d := Parallelize(ctx, ints(100), 4)
	_ = Map(d, func(x int) int { return x }).Collect()
	m1 := ctx.Metrics()
	if m1.Tasks == 0 {
		t.Error("tasks not counted")
	}
	if m1.Shuffles != 0 {
		t.Errorf("narrow map should not shuffle, got %d", m1.Shuffles)
	}
	_ = ReduceByKey(d, func(x int) int { return x % 3 }, cmp.Compare[int], func(a, b int) int { return a + b }).Collect()
	m2 := ctx.Metrics()
	if m2.Shuffles == 0 || m2.ShuffledRecords == 0 {
		t.Errorf("reduceByKey should shuffle: %+v", m2)
	}
	// Map-side combining: at most parts*keys records cross the wire.
	if m2.ShuffledRecords > 4*3 {
		t.Errorf("combiner ineffective: shuffled %d records", m2.ShuffledRecords)
	}
	ctx.ResetMetrics()
	if m := ctx.Metrics(); m.Tasks != 0 || m.Shuffles != 0 {
		t.Errorf("ResetMetrics: %+v", m)
	}
	if ctx.Metrics().String() == "" {
		t.Error("Metrics.String empty")
	}
}

func TestTaskPanicPropagates(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, ints(10), 4)
	defer func() {
		if recover() == nil {
			t.Error("panic in task must propagate")
		}
	}()
	Map(d, func(x int) int {
		if x == 7 {
			panic("boom")
		}
		return x
	})
}

func TestContextAccessors(t *testing.T) {
	ctx := NewContext(WithParallelism(3), WithDefaultPartitions(9))
	if ctx.Parallelism() != 3 || ctx.DefaultPartitions() != 9 {
		t.Errorf("accessors: %d, %d", ctx.Parallelism(), ctx.DefaultPartitions())
	}
	def := NewContext(WithParallelism(0))
	if def.Parallelism() < 1 {
		t.Error("invalid parallelism must fall back to NumCPU")
	}
}
