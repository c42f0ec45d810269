package temporal

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewInterval(t *testing.T) {
	iv, err := NewInterval(1, 7)
	if err != nil {
		t.Fatalf("NewInterval(1, 7): %v", err)
	}
	if iv.Start != 1 || iv.End != 7 {
		t.Errorf("got %v, want [1, 7)", iv)
	}
	if _, err := NewInterval(7, 1); err == nil {
		t.Error("NewInterval(7, 1): want error, got nil")
	}
	if iv, err := NewInterval(3, 3); err != nil || !iv.IsEmpty() {
		t.Errorf("NewInterval(3, 3) = %v, %v; want empty, nil", iv, err)
	}
}

func TestMustIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustInterval(5, 2): want panic")
		}
	}()
	MustInterval(5, 2)
}

func TestDuration(t *testing.T) {
	cases := []struct {
		iv   Interval
		want Time
	}{
		{MustInterval(1, 7), 6},
		{MustInterval(2, 3), 1},
		{Empty, 0},
		{Interval{Start: 9, End: 2}, 0},
	}
	for _, c := range cases {
		if got := c.iv.Duration(); got != c.want {
			t.Errorf("%v.Duration() = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	iv := MustInterval(2, 5)
	for _, tc := range []struct {
		t    Time
		want bool
	}{{1, false}, {2, true}, {4, true}, {5, false}} {
		if got := iv.Contains(tc.t); got != tc.want {
			t.Errorf("%v.Contains(%d) = %v, want %v", iv, tc.t, got, tc.want)
		}
	}
}

func TestCovers(t *testing.T) {
	iv := MustInterval(1, 9)
	if !iv.Covers(MustInterval(2, 5)) {
		t.Error("[1,9) should cover [2,5)")
	}
	if !iv.Covers(iv) {
		t.Error("interval should cover itself")
	}
	if iv.Covers(MustInterval(0, 5)) {
		t.Error("[1,9) should not cover [0,5)")
	}
	if !iv.Covers(Empty) {
		t.Error("any interval covers the empty interval")
	}
}

func TestOverlapsMeetsAdjacent(t *testing.T) {
	a := MustInterval(1, 4)
	b := MustInterval(4, 7)
	c := MustInterval(3, 5)
	d := MustInterval(6, 9)
	if a.Overlaps(b) {
		t.Error("[1,4) and [4,7) must not overlap (closed-open)")
	}
	if !a.Meets(b) {
		t.Error("[1,4) meets [4,7)")
	}
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Error("meeting intervals are adjacent in both orders")
	}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Error("[1,4) and [3,5) overlap")
	}
	if a.Adjacent(d) {
		t.Error("[1,4) and [6,9) are not adjacent")
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Interval
	}{
		{MustInterval(1, 7), MustInterval(2, 5), MustInterval(2, 5)},
		{MustInterval(1, 4), MustInterval(3, 9), MustInterval(3, 4)},
		{MustInterval(1, 4), MustInterval(4, 9), Empty},
		{MustInterval(1, 4), MustInterval(7, 9), Empty},
	}
	for _, c := range cases {
		if got := c.a.Intersect(c.b); !got.Equal(c.want) {
			t.Errorf("%v.Intersect(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersect(c.a); !got.Equal(c.want) {
			t.Errorf("Intersect not commutative for %v, %v", c.a, c.b)
		}
	}
}

func TestUnionAndSpan(t *testing.T) {
	if got := MustInterval(1, 4).Union(MustInterval(3, 9)); got != MustInterval(1, 9) {
		t.Errorf("Union = %v, want [1, 9)", got)
	}
	if got := Span(MustInterval(5, 6), Empty, MustInterval(1, 2)); got != MustInterval(1, 6) {
		t.Errorf("Span = %v, want [1, 6)", got)
	}
	if got := Span(); !got.IsEmpty() {
		t.Errorf("Span() = %v, want empty", got)
	}
}

func TestCoalesceIntervals(t *testing.T) {
	in := []Interval{
		MustInterval(5, 7), MustInterval(1, 3), MustInterval(3, 5),
		MustInterval(10, 12), Empty, MustInterval(11, 15),
	}
	got := CoalesceIntervals(in)
	want := []Interval{MustInterval(1, 7), MustInterval(10, 15)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CoalesceIntervals = %v, want %v", got, want)
	}
	if CoalesceIntervals(nil) != nil {
		t.Error("CoalesceIntervals(nil) should be nil")
	}
}

func TestSubtractAll(t *testing.T) {
	iv := MustInterval(0, 10)
	got := SubtractAll(iv, []Interval{MustInterval(2, 4), MustInterval(6, 7)})
	want := []Interval{MustInterval(0, 2), MustInterval(4, 6), MustInterval(7, 10)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SubtractAll = %v, want %v", got, want)
	}
	if got := SubtractAll(iv, []Interval{iv}); got != nil {
		t.Errorf("subtracting a cover of itself should leave nothing, got %v", got)
	}
	if got := SubtractAll(iv, nil); !reflect.DeepEqual(got, []Interval{iv}) {
		t.Errorf("subtracting nothing should return the input, got %v", got)
	}
}

// genIntervals produces a random small interval set for property tests.
func genIntervals(r *rand.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		s := Time(r.Intn(50))
		ivs[i] = Interval{Start: s, End: s + Time(r.Intn(10))}
	}
	return ivs
}

func TestCoalesceIntervalsProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := genIntervals(r, r.Intn(20))
		out := CoalesceIntervals(in)
		// 1. Output is sorted, disjoint and non-adjacent.
		for i := 1; i < len(out); i++ {
			if !out[i-1].Before(out[i]) || out[i-1].Adjacent(out[i]) {
				return false
			}
		}
		// 2. Point-set equivalence over the full domain.
		for p := Time(0); p < 70; p++ {
			inCover, outCover := false, false
			for _, iv := range in {
				if iv.Contains(p) {
					inCover = true
					break
				}
			}
			for _, iv := range out {
				if iv.Contains(p) {
					outCover = true
					break
				}
			}
			if inCover != outCover {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSubtractAllProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		iv := Interval{Start: Time(r.Intn(20)), End: Time(20 + r.Intn(30))}
		cover := genIntervals(r, r.Intn(10))
		rest := SubtractAll(iv, cover)
		// Every point of iv is in exactly one of (cover ∩ iv) or rest.
		for p := iv.Start; p < iv.End; p++ {
			covered := false
			for _, c := range cover {
				if c.Contains(p) {
					covered = true
					break
				}
			}
			inRest := false
			for _, rv := range rest {
				if rv.Contains(p) {
					inRest = true
					break
				}
			}
			if covered == inRest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
