package dataflow

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestGroupByKey(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, ints(30), 5)
	groups := GroupByKey(d, func(x int) int { return x % 3 }, cmp.Compare[int]).Collect()
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	for _, g := range groups {
		if len(g.Values) != 10 {
			t.Errorf("group %d has %d values, want 10", g.Key, len(g.Values))
		}
		for _, v := range g.Values {
			if v%3 != g.Key {
				t.Errorf("value %d in wrong group %d", v, g.Key)
			}
		}
	}
}

// TestGroupByKeyInvokesKeyOnce: the key function runs exactly once per
// record, map-side. Before the Pair-shuffle fix it also ran on the
// reduce side, so a non-deterministic or stateful key silently
// misgrouped.
func TestGroupByKeyInvokesKeyOnce(t *testing.T) {
	ctx := testCtx()
	n := 30
	d := Parallelize(ctx, ints(n), 5)
	var calls atomic.Int64
	groups := GroupByKey(d, func(x int) int {
		calls.Add(1)
		return x % 3
	}, cmp.Compare[int]).Collect()
	if got := calls.Load(); got != int64(n) {
		t.Errorf("key function called %d times, want exactly %d", got, n)
	}
	total := 0
	for _, g := range groups {
		total += len(g.Values)
		for _, v := range g.Values {
			if v%3 != g.Key {
				t.Errorf("value %d in wrong group %d", v, g.Key)
			}
		}
	}
	if total != n {
		t.Errorf("grouped %d records, want %d", total, n)
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, ints(100), 8)
	got := ReduceByKey(d, func(x int) int { return x % 4 }, cmp.Compare[int], func(a, b int) int { return a + b }).Collect()
	sums := map[int]int{}
	for _, v := range got {
		sums[v%4] += 0 // keys derived below
	}
	// Recompute expected sums.
	want := map[int]int{}
	for i := 0; i < 100; i++ {
		want[i%4] += i
	}
	if len(got) != 4 {
		t.Fatalf("got %d reduced records, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		matched := false
		for k, w := range want {
			if v == w && !seen[k] {
				seen[k] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected reduced value %d (want one of %v)", v, want)
		}
	}
	_ = sums
}

// Property: ReduceByKey equals a sequential group-then-fold regardless
// of partitioning and parallelism.
func TestReduceByKeyMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		data := make([]int, n)
		for i := range data {
			data[i] = r.Intn(1000)
		}
		numParts := 1 + r.Intn(8)
		ctx := NewContext(WithParallelism(1 + r.Intn(8)))
		d := Parallelize(ctx, data, numParts)
		got := ReduceByKey(d, func(x int) int { return x % 7 }, cmp.Compare[int], func(a, b int) int { return a + b }).Collect()
		want := map[int]int{}
		for _, x := range data {
			want[x%7] += x
		}
		if len(got) != len(want) {
			return false
		}
		gotSet := map[int]int{}
		for _, v := range got {
			gotSet[v%7] += v // careful: sum of same-key values mod 7 may differ from key
		}
		// Compare as multisets of sums instead.
		var ws, gs []int
		for _, w := range want {
			ws = append(ws, w)
		}
		gs = append(gs, got...)
		sort.Ints(ws)
		sort.Ints(gs)
		return reflect.DeepEqual(ws, gs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGroupsShareOneArrayWithoutOverlap pins the arena layout: the
// groups of a partition are consecutive runs of one backing array, each
// capacity-capped, so appending to one group's Values reallocates that
// group instead of overwriting its neighbour — and groups come in key
// order with their records in input order.
func TestGroupsShareOneArrayWithoutOverlap(t *testing.T) {
	ctx := NewContext(WithParallelism(1), WithDefaultPartitions(1))
	in := []rec{{7, 0}, {3, 1}, {7, 2}, {5, 3}, {3, 4}, {7, 5}, {9, 6}}
	groups := GroupByKey(Parallelize(ctx, in, 1), recKey, cmp.Compare[int]).Collect()
	var keys []int
	byKey := map[int][]rec{}
	for i, g := range groups {
		keys = append(keys, g.Key)
		byKey[g.Key] = g.Values
		if cap(g.Values) != len(g.Values) {
			t.Errorf("group %d: cap %d > len %d, an append would run into the next group", g.Key, cap(g.Values), len(g.Values))
		}
		if i > 0 {
			prev := groups[i-1].Values
			if unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*int(unsafe.Sizeof(prev[0]))) != unsafe.Pointer(&g.Values[0]) {
				t.Errorf("group %d does not start where group %d ends: not one backing array", g.Key, groups[i-1].Key)
			}
		}
	}
	if want := []int{3, 5, 7, 9}; !reflect.DeepEqual(keys, want) {
		t.Errorf("group order = %v, want key order %v", keys, want)
	}
	if want := []rec{{7, 0}, {7, 2}, {7, 5}}; !reflect.DeepEqual(byKey[7], want) {
		t.Errorf("group 7 = %v, want its records in input order %v", byKey[7], want)
	}
	grown := append(byKey[7], rec{-1, -1})
	if got := byKey[9]; !reflect.DeepEqual(got, []rec{{9, 6}}) {
		t.Errorf("appending to group 7 changed group 9, its neighbour, to %v", got)
	}
	if !reflect.DeepEqual(grown, []rec{{7, 0}, {7, 2}, {7, 5}, {-1, -1}}) {
		t.Errorf("grown group = %v", grown)
	}
}

// TestGroupByKeyAllocatesPerPartition: grouping builds a fixed number
// of arrays per partition — the sorted index, the arena and the groups
// — whatever the number of groups: a hundred times the groups allocate
// no more (±2), and neither count exceeds a fixed ceiling, so a fixed
// cost added to every call fails too. ReduceByKey keeps the same
// guard.
func TestGroupByKeyAllocatesPerPartition(t *testing.T) {
	ctx := NewContext(WithParallelism(1), WithDefaultPartitions(4))
	d := Parallelize(ctx, ints(20000), 4)
	add := func(a, b int) int { return a + b }
	for _, op := range []struct {
		name string
		run  func(key func(int) int)
	}{
		{"GroupByKey", func(key func(int) int) { GroupByKey(d, key, cmp.Compare[int]) }},
		{"ReduceByKey", func(key func(int) int) { ReduceByKey(d, key, cmp.Compare[int], add) }},
	} {
		allocs := func(groups int) float64 {
			return testing.AllocsPerRun(5, func() { op.run(func(x int) int { return x % groups }) })
		}
		few, many := allocs(50), allocs(5000)
		if many > few+2 || many > 100 {
			t.Errorf("%s allocs: %v for 50 keys, %v for 5000 — want O(partitions), not O(keys), and at most 100", op.name, few, many)
		}
	}
}

func TestFlatMapAppend(t *testing.T) {
	ctx := testCtx()
	d := Parallelize(ctx, []int{1, 2, 3, 0}, 2)
	got := FlatMapAppend(d, func(x int, out []int) []int {
		for i := 0; i < x; i++ {
			out = append(out, x)
		}
		return out
	}).Collect()
	if want := []int{1, 2, 2, 3, 3, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("FlatMapAppend = %v, want %v", got, want)
	}
}

// rec is a record whose key and arrival position are both visible, so
// a test can tell in-group order from a permutation.
type rec struct{ K, Seq int }

func recKey(r rec) int { return r.K }

// randomParts draws 1–5 partitions, some empty, of records with keys in
// [0, keys).
func randomParts(r *rand.Rand, keys int) [][]rec {
	parts := make([][]rec, 1+r.Intn(5))
	seq := 0
	for i := range parts {
		if r.Intn(3) == 0 {
			continue // an empty partition
		}
		for n := r.Intn(12); n > 0; n-- {
			parts[i] = append(parts[i], rec{K: r.Intn(keys), Seq: seq})
			seq++
		}
	}
	return parts
}

// refShuffle is the naive model of the hash shuffle: destination dst
// receives, in (source, record) order, the records whose key hashes to
// it.
func refShuffle(ctx *Context, parts [][]rec, numOut int) [][]rec {
	out := make([][]rec, numOut)
	for _, p := range parts {
		for _, x := range p {
			dst := hashKey(ctx.seed, x.K) % uint64(numOut)
			out[dst] = append(out[dst], x)
		}
	}
	return out
}

// refGroup is the naive map-based grouping: keys in ascending order,
// each key's records in arrival order.
func refGroup(recs []rec) (order []int, byKey map[int][]rec) {
	byKey = map[int][]rec{}
	for _, x := range recs {
		if _, seen := byKey[x.K]; !seen {
			order = append(order, x.K)
		}
		byKey[x.K] = append(byKey[x.K], x)
	}
	sort.Ints(order)
	return order, byKey
}

// refReduce is the naive model of ReduceByKey's fold sequence: per
// source partition, each key's records folded in arrival order; then,
// per destination, the keys in ascending order, each one's partials
// folded in source order.
func refReduce(ctx *Context, parts [][]rec, reduce func(a, b rec) rec) [][]rec {
	var partials [][]rec
	for _, p := range parts {
		order, byKey := refGroup(p)
		var acc []rec
		for _, k := range order {
			a := byKey[k][0]
			for _, x := range byKey[k][1:] {
				a = reduce(a, x)
			}
			acc = append(acc, a)
		}
		partials = append(partials, acc)
	}
	out := make([][]rec, len(parts))
	for dst, recs := range refShuffle(ctx, partials, len(parts)) {
		order, byKey := refGroup(recs)
		for _, k := range order {
			a := byKey[k][0]
			for _, x := range byKey[k][1:] {
				a = reduce(a, x)
			}
			out[dst] = append(out[dst], a)
		}
	}
	return out
}

// TestKeyedOpsMatchNaiveReference: GroupByKey and ReduceByKey equal a
// map-based reference partition for partition — group key order,
// in-group order, ReduceByKey's fold sequence and capacity-capped runs
// included — over random keys, 1–5 partitions and empty partitions.
func TestKeyedOpsMatchNaiveReference(t *testing.T) {
	capped := func(label string, vals []rec) {
		if cap(vals) != len(vals) {
			t.Errorf("%s: cap %d != len %d", label, cap(vals), len(vals))
		}
	}
	// same treats nil and empty alike; DeepEqual does not.
	same := func(a, b []rec) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	// fold is associative in neither argument order nor grouping, so
	// the reference pins the sequence in which records are combined.
	fold := func(a, b rec) rec { return rec{K: a.K, Seq: a.Seq*31 + b.Seq} }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ctx := NewContext(WithParallelism(1 + r.Intn(4)))
		lparts := randomParts(r, 7)
		l := FromPartitions(ctx, lparts)

		got := GroupByKey(l, recKey, cmp.Compare[int]).Partitions()
		for dst, recs := range refShuffle(ctx, lparts, len(lparts)) {
			order, byKey := refGroup(recs)
			if len(got[dst]) != len(order) {
				t.Errorf("GroupByKey partition %d: %d groups, want %d", dst, len(got[dst]), len(order))
				continue
			}
			for g, k := range order {
				if got[dst][g].Key != k || !reflect.DeepEqual(got[dst][g].Values, byKey[k]) {
					t.Errorf("GroupByKey partition %d group %d = %v, want key %d %v", dst, g, got[dst][g], k, byKey[k])
				}
				capped("GroupByKey", got[dst][g].Values)
			}
		}

		reduced := ReduceByKey(l, recKey, cmp.Compare[int], fold).Partitions()
		for dst, want := range refReduce(ctx, lparts, fold) {
			if !same(reduced[dst], want) {
				t.Errorf("ReduceByKey partition %d = %v, want %v", dst, reduced[dst], want)
			}
		}

		if m := ctx.Metrics(); m.Shuffles != 1+1 {
			t.Errorf("Shuffles = %d, want 2: one per GroupByKey and ReduceByKey", m.Shuffles)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestGroupByKeyCopiesEachRecordOnce is the bytes guard: grouping N
// records allocates the one group-contiguous copy of them plus the
// per-record side arrays (key, destination, group number) — at most
// 1.5 x N x sizeof(V) — and O(partitions) beyond that. Wrapping the
// records in pairs or gathering them before grouping cost 4 x and more.
func TestGroupByKeyCopiesEachRecordOnce(t *testing.T) {
	type wide struct {
		K    int
		Body [5]int64 // 48 bytes a record, a vertex state's size
	}
	const n, parts, runs = 40000, 4, 5
	data := make([]wide, n)
	for i := range data {
		data[i].K = i % 50
	}
	ctx := NewContext(WithParallelism(1), WithDefaultPartitions(parts))
	d := Parallelize(ctx, data, parts)
	key := func(w wide) int { return w.K }
	GroupByKey(d, key, cmp.Compare[int]) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		GroupByKey(d, key, cmp.Compare[int])
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	budget := 1.5*n*float64(unsafe.Sizeof(wide{})) + parts*16<<10
	if perRun > budget {
		t.Errorf("GroupByKey allocated %.0f bytes for %d records of %d bytes (%.2f x), want <= %.0f (1.5 x + 16 KiB a partition)",
			perRun, n, unsafe.Sizeof(wide{}), perRun/(n*float64(unsafe.Sizeof(wide{}))), budget)
	}
}
