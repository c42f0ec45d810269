package temporal

import "slices"

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
	if pts := BoundariesOf(make([]Time, 0, 2*len(ivs)), ivs, func(iv *Interval) *Interval { return iv }); len(pts) > 0 {
		return pts
	}
	return nil
}

// BoundariesOf is Boundaries over the intervals iv reads from items,
// built in dst's storage. The result indexes the elementary intervals
// without materialising them: the j-th is [pts[j], pts[j+1]), and a
// non-empty item covers those from the position of its start up to
// that of its end.
func BoundariesOf[T any](dst []Time, items []T, iv func(*T) *Interval) []Time {
	dst = dst[:0]
	for i := range items {
		if r := iv(&items[i]); !r.IsEmpty() {
			dst = append(dst, r.Start, r.End)
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// Elementary returns the elementary intervals induced by the input
// set: consecutive pairs of boundary points. Gaps between disjoint
// inputs are included; callers that need only covered elementary
// intervals should intersect with the inputs.
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

// Stated pairs a value with its period of validity. It is the unit of
// temporal relations throughout the system.
type Stated[T any] struct {
	Interval Interval
	Value    T
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
