package temporal

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestBoundaries(t *testing.T) {
	in := []Interval{MustInterval(2, 7), MustInterval(1, 7), MustInterval(5, 9), Empty}
	got := Boundaries(in)
	want := []Time{1, 2, 5, 7, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Boundaries = %v, want %v", got, want)
	}
	if Boundaries(nil) != nil {
		t.Error("Boundaries(nil) should be nil")
	}
}

func TestElementary(t *testing.T) {
	// The OGC bitset periods of Figure 7: vertices [1,7), [2,9), [1,9)
	// and edges [2,7), [7,9) induce T = {[1,2), [2,7), [7,9)}.
	in := []Interval{MustInterval(1, 7), MustInterval(2, 9), MustInterval(1, 9), MustInterval(2, 7), MustInterval(7, 9)}
	got := Elementary(in)
	want := []Interval{MustInterval(1, 2), MustInterval(2, 7), MustInterval(7, 9)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Elementary = %v, want %v", got, want)
	}
}

// coalesceStated and isCoalescedStated run the in-place kernels over
// Stated values ordered by interval alone; coalesceStated folds a copy
// so tests keep their input.
func coalesceStated[T any](states []Stated[T], eq func(a, b T) bool) []Stated[T] {
	return Coalesce(slices.Clone(states), statedIv[T], statedCmp[T], statedEq(eq))
}

func isCoalescedStated[T any](states []Stated[T], eq func(a, b T) bool) bool {
	return IsCoalesced(states, statedIv[T], statedCmp[T], statedEq(eq))
}

func statedIv[T any](s *Stated[T]) *Interval { return &s.Interval }
func statedCmp[T any](a, b Stated[T]) int    { return a.Interval.Compare(b.Interval) }
func statedEq[T any](eq func(a, b T) bool) func(a, b Stated[T]) bool {
	return func(a, b Stated[T]) bool { return eq(a.Value, b.Value) }
}

func TestCoalesceStates(t *testing.T) {
	eq := func(a, b string) bool { return a == b }
	in := []Stated[string]{
		{MustInterval(5, 9), "x"},
		{MustInterval(1, 3), "x"},
		{Empty, "x"},
		{MustInterval(3, 5), "x"},
		{MustInterval(9, 12), "y"},
	}
	if isCoalescedStated(in, eq) {
		t.Error("input was not coalesced")
	}
	got := coalesceStated(in, eq)
	want := []Stated[string]{
		{MustInterval(1, 9), "x"},
		{MustInterval(9, 12), "y"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Coalesce = %v, want %v", got, want)
	}
	if !isCoalescedStated(got, eq) {
		t.Error("Coalesce output must be coalesced")
	}
}

// TestCoalesceInPlace pins the aliasing contract: the result is a
// prefix of the (reordered) input, and an already coalesced run comes
// back untouched.
func TestCoalesceInPlace(t *testing.T) {
	eq := statedEq(func(a, b string) bool { return a == b })
	in := []Stated[string]{
		{MustInterval(3, 5), "x"},
		{MustInterval(1, 3), "x"},
		{MustInterval(7, 9), "y"},
	}
	got := Coalesce(in, statedIv[string], statedCmp[string], eq)
	if len(got) != 2 || &got[0] != &in[0] {
		t.Fatalf("Coalesce = %v, want a 2-state prefix of its input", got)
	}
	if in[0] != (Stated[string]{MustInterval(1, 5), "x"}) {
		t.Errorf("the merged state was not written through: %v", in[0])
	}
	again := Coalesce(got, statedIv[string], statedCmp[string], eq)
	if len(again) != 2 || &again[0] != &got[0] {
		t.Errorf("a coalesced run must be returned as is, got %v", again)
	}
}

// TestCoalesceTotalOrder is the regression test for the unstable sort:
// states with identical intervals and different values used to fold in
// an order that depended on the sort's swaps. The order is now the
// caller's tie-break, then input order.
func TestCoalesceTotalOrder(t *testing.T) {
	type st struct {
		Interval Interval
		Src      int
		Val      string
	}
	iv := func(s *st) *Interval { return &s.Interval }
	bySrc := func(a, b st) int { return cmp.Or(a.Interval.Compare(b.Interval), cmp.Compare(a.Src, b.Src)) }
	eq := func(a, b st) bool { return a.Src == b.Src && a.Val == b.Val }
	var in []st
	for i := 0; i < 40; i++ { // long enough to leave insertion-sort range
		in = append(in, st{MustInterval(0, 4), i % 2, string(rune('a' + i))})
	}
	got := Coalesce(slices.Clone(in), iv, bySrc, eq)
	if len(got) != len(in) {
		t.Fatalf("no two states are equivalent, got %d of %d back", len(got), len(in))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Val > b.Val) {
			t.Fatalf("states %d,%d out of (tie-break, input) order: %v %v", i-1, i, a, b)
		}
	}
	// The tie-break decides which neighbours meet: the [4, 8) state of
	// source 1 follows every [0, 4) state, but merges only if the last
	// of those is source 1's.
	tail := Coalesce([]st{{MustInterval(4, 8), 1, "b"}, {MustInterval(0, 4), 1, "b"}, {MustInterval(0, 4), 0, "a"}}, iv, bySrc, eq)
	want := []st{{MustInterval(0, 4), 0, "a"}, {MustInterval(0, 8), 1, "b"}}
	if !reflect.DeepEqual(tail, want) {
		t.Errorf("Coalesce = %v, want %v", tail, want)
	}
}

// TestCoalesceFastPathsDoNotAllocate pins the two runs the zoom result
// path meets most: one state, and an already coalesced history.
func TestCoalesceFastPathsDoNotAllocate(t *testing.T) {
	eq := statedEq(func(a, b int) bool { return a == b })
	single := []Stated[int]{{MustInterval(1, 3), 1}}
	done := []Stated[int]{{MustInterval(1, 3), 1}, {MustInterval(3, 5), 2}, {MustInterval(7, 9), 2}}
	mixed := []Stated[int]{{MustInterval(3, 5), 1}, {MustInterval(1, 3), 1}, {MustInterval(7, 9), 2}}
	work := make([]Stated[int], len(mixed))
	for name, run := range map[string]func(){
		"single":    func() { Coalesce(single, statedIv[int], statedCmp[int], eq) },
		"coalesced": func() { Coalesce(done, statedIv[int], statedCmp[int], eq) },
		"unsorted": func() {
			copy(work, mixed)
			Coalesce(work, statedIv[int], statedCmp[int], eq)
		},
	} {
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("Coalesce of a %s run: %v allocs, want 0", name, n)
		}
	}
}

func TestCoalesceGapPreserved(t *testing.T) {
	eq := func(a, b string) bool { return a == b }
	in := []Stated[string]{
		{MustInterval(1, 3), "x"},
		{MustInterval(5, 7), "x"},
	}
	got := coalesceStated(in, eq)
	if len(got) != 2 {
		t.Fatalf("states separated by a gap must not merge: %v", got)
	}
}

func TestCoalesceIdempotent(t *testing.T) {
	eq := func(a, b int) bool { return a == b }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(12)
		// A valid TGraph has at most one state per entity per time
		// point, so generate sequential (possibly meeting, possibly
		// gapped) states.
		states := make([]Stated[int], n)
		cur := Time(0)
		for i := range states {
			cur += Time(r.Intn(3)) // 0 = meets previous, >0 = gap
			end := cur + 1 + Time(r.Intn(5))
			states[i] = Stated[int]{
				Interval: Interval{Start: cur, End: end},
				Value:    r.Intn(2),
			}
			cur = end
		}
		once := coalesceStated(states, eq)
		twice := coalesceStated(once, eq)
		return reflect.DeepEqual(once, twice) && isCoalescedStated(once, eq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
