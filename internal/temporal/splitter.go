package temporal

import (
	"slices"
	"sort"
)

// The temporal splitter implements the alignment primitive of Dignös et
// al. ("Temporal Alignment", SIGMOD 2012) that the paper's VE
// algorithms build on: a set of intervals is decomposed into
// *elementary* intervals — the finest partition of the covered
// timeline such that every input interval is a union of elementary
// intervals. Point-semantics operators can then evaluate their
// non-temporal variant once per elementary interval instead of once
// per time point.

// Boundaries returns the sorted, de-duplicated start and end points of
// all non-empty input intervals.
func Boundaries(ivs []Interval) []Time {
	pts := make([]Time, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.IsEmpty() {
			continue
		}
		pts = append(pts, iv.Start, iv.End)
	}
	if len(pts) == 0 {
		return nil
	}
	slices.Sort(pts) // specialised sort: no per-call reflection allocs
	out := pts[:1]
	for _, p := range pts[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// Elementary returns the elementary intervals induced by the input
// set: consecutive pairs of boundary points. Gaps between disjoint
// inputs are included; callers that need only covered elementary
// intervals should intersect with the inputs (see SplitBy).
func Elementary(ivs []Interval) []Interval {
	pts := Boundaries(ivs)
	if len(pts) < 2 {
		return nil
	}
	out := make([]Interval, 0, len(pts)-1)
	for i := 0; i+1 < len(pts); i++ {
		out = append(out, Interval{Start: pts[i], End: pts[i+1]})
	}
	return out
}

// SplitBy splits iv at every boundary point that falls strictly inside
// it, returning the ordered fragments whose union is iv. Points at or
// outside the bounds of iv are ignored. If iv is empty, SplitBy returns
// nil. The points slice must be sorted ascending.
func SplitBy(iv Interval, points []Time) []Interval {
	if iv.IsEmpty() {
		return nil
	}
	out := make([]Interval, 0, 4)
	cur := iv.Start
	i := sort.Search(len(points), func(i int) bool { return points[i] > iv.Start })
	for ; i < len(points) && points[i] < iv.End; i++ {
		out = append(out, Interval{Start: cur, End: points[i]})
		cur = points[i]
	}
	out = append(out, Interval{Start: cur, End: iv.End})
	return out
}

// Stated pairs a value with its period of validity. It is the unit of
// temporal relations throughout the system.
type Stated[T any] struct {
	Interval Interval
	Value    T
}

// Align splits every input state at the union of all boundary points of
// the input set, so that any two output intervals are either identical
// or disjoint. This is the group-local "temporal splitter" step used by
// the VE variants of both zoom operators (Algorithm 2, lines 1-10).
func Align[T any](states []Stated[T]) []Stated[T] {
	ivs := make([]Interval, len(states))
	for i, s := range states {
		ivs[i] = s.Interval
	}
	pts := Boundaries(ivs)
	out := make([]Stated[T], 0, len(states))
	for _, s := range states {
		for _, frag := range SplitBy(s.Interval, pts) {
			out = append(out, Stated[T]{Interval: frag, Value: s.Value})
		}
	}
	return out
}

// Coalesce merges value-equivalent adjacent (meeting or overlapping)
// states into states of maximal length, implementing the partitioning
// method for temporal coalescing: sort by start time, then fold,
// merging a state into its predecessor when the intervals are adjacent
// and the values are equivalent under eq.
//
// Coalesce works IN PLACE on the states themselves: iv yields the
// address of a state's validity interval, empty states are dropped,
// the rest are reordered, merged intervals are written through iv, and
// the result is a prefix of the input slice. Callers that retain the
// input must pass a copy. A run that IsCoalesced — in particular a
// single state — is returned untouched and without allocating.
//
// Within one entity, cmp must order states by interval
// (Interval.Compare) first and may break ties on the caller's remaining
// identity fields (an edge's endpoints); the sort is stable, so the
// order is total and states with identical intervals and different
// values fold the same way on every run.
//
// The caller is responsible for grouping by entity first: Coalesce
// treats every input state as belonging to the same entity — unless cmp
// orders by entity before interval and eq compares the entity too; then
// the sort brings each entity's states together and one call coalesces
// a whole relation (core.SortedCoalesced).
func Coalesce[T any](states []T, iv func(*T) *Interval, cmp func(a, b T) int, eq func(a, b T) bool) []T {
	if IsCoalesced(states, iv, cmp, eq) {
		return states
	}
	work := states[:0]
	for i := range states {
		if !iv(&states[i]).IsEmpty() {
			work = append(work, states[i])
		}
	}
	slices.SortStableFunc(work, cmp)
	out := work[:min(1, len(work))]
	for i := 1; i < len(work); i++ {
		last := iv(&out[len(out)-1])
		if last.Adjacent(*iv(&work[i])) && eq(out[len(out)-1], work[i]) {
			*last = last.Union(*iv(&work[i]))
		} else {
			out = append(out, work[i])
		}
	}
	return out
}

// IsCoalesced reports whether the states (all assumed to belong to one
// entity) are in the form Coalesce produces: every state non-empty, in
// cmp order, no two states overlapping, and no two value-equivalent
// states adjacent. It does not allocate.
func IsCoalesced[T any](states []T, iv func(*T) *Interval, cmp func(a, b T) int, eq func(a, b T) bool) bool {
	for i := range states {
		cur := iv(&states[i])
		if cur.IsEmpty() {
			return false
		}
		if i == 0 {
			continue
		}
		prev := iv(&states[i-1])
		if cmp(states[i-1], states[i]) > 0 || prev.Overlaps(*cur) {
			return false
		}
		if prev.Meets(*cur) && eq(states[i-1], states[i]) {
			return false
		}
	}
	return true
}
