// Package temporal implements the discrete temporal domain underlying a
// TGraph: time points, closed-open intervals, interval algebra, temporal
// alignment (splitting), coalescing kernels, tumbling window
// specifications and existence quantifiers.
//
// Following the paper's Section 2 model (and SQL:2011), an interval
// [start, end) is a purely syntactic device denoting the discrete,
// contiguous set of time points {start, start+1, ..., end-1}; all
// operator semantics are point-based. The window specifications and
// quantifiers are the ones wZoom^T (Section 3.2) is parameterised by.
package temporal

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Time is a discrete time point drawn from a linearly ordered domain.
// Datasets are free to interpret ticks as months, years or UNIX
// timestamps; the algebra only relies on the ordering.
type Time int64

// MinTime and MaxTime bound the temporal domain. They are reserved as
// sentinels ("beginning of time" / "forever") and never appear as data
// points themselves.
const (
	MinTime Time = math.MinInt64 / 4
	MaxTime Time = math.MaxInt64 / 4
)

// Interval is a closed-open interval [Start, End) of discrete time
// points. An interval with End <= Start is empty.
type Interval struct {
	Start Time
	End   Time
}

// Empty is the canonical empty interval.
var Empty = Interval{}

// NewInterval returns the interval [start, end). It returns an error if
// end < start; [t, t) is allowed and denotes the empty interval.
func NewInterval(start, end Time) (Interval, error) {
	if end < start {
		return Interval{}, fmt.Errorf("temporal: invalid interval [%d, %d): end before start", start, end)
	}
	return Interval{Start: start, End: end}, nil
}

// MustInterval is like NewInterval but panics on invalid bounds. It is
// intended for literals in tests and examples.
func MustInterval(start, end Time) Interval {
	iv, err := NewInterval(start, end)
	if err != nil {
		panic(err)
	}
	return iv
}

// IsEmpty reports whether the interval contains no time points.
func (iv Interval) IsEmpty() bool { return iv.End <= iv.Start }

// Duration returns the number of time points in the interval.
func (iv Interval) Duration() Time {
	if iv.IsEmpty() {
		return 0
	}
	return iv.End - iv.Start
}

// Contains reports whether time point t lies in [Start, End).
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Covers reports whether every point of other lies in iv. The empty
// interval is covered by every interval.
func (iv Interval) Covers(other Interval) bool {
	if other.IsEmpty() {
		return true
	}
	return iv.Start <= other.Start && other.End <= iv.End
}

// Overlaps reports whether the two intervals share at least one point.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// Meets reports whether iv ends exactly where other begins.
func (iv Interval) Meets(other Interval) bool {
	return !iv.IsEmpty() && !other.IsEmpty() && iv.End == other.Start
}

// Adjacent reports whether the two intervals overlap or meet in either
// order, i.e. whether their union is a single interval.
func (iv Interval) Adjacent(other Interval) bool {
	return iv.Overlaps(other) || iv.Meets(other) || other.Meets(iv)
}

// Intersect returns the largest interval contained in both inputs, or
// the empty interval if they are disjoint.
func (iv Interval) Intersect(other Interval) Interval {
	s := max(iv.Start, other.Start)
	e := min(iv.End, other.End)
	if e <= s {
		return Empty
	}
	return Interval{Start: s, End: e}
}

// Union returns the smallest single interval covering both inputs. It
// is only meaningful when the inputs are Adjacent; for disjoint inputs
// it also covers the gap.
func (iv Interval) Union(other Interval) Interval {
	if iv.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return iv
	}
	return Interval{Start: min(iv.Start, other.Start), End: max(iv.End, other.End)}
}

// Equal reports whether the two intervals denote the same point set.
func (iv Interval) Equal(other Interval) bool {
	if iv.IsEmpty() && other.IsEmpty() {
		return true
	}
	return iv == other
}

// Before reports whether iv starts strictly before other, breaking ties
// by end. It induces the canonical sort order for interval sequences.
func (iv Interval) Before(other Interval) bool {
	if iv.Start != other.Start {
		return iv.Start < other.Start
	}
	return iv.End < other.End
}

// Compare orders intervals by (Start, End), the order Before induces:
// negative when iv sorts first, zero when the bounds are equal.
func (iv Interval) Compare(other Interval) int {
	return cmp.Or(cmp.Compare(iv.Start, other.Start), cmp.Compare(iv.End, other.End))
}

// String renders the interval in the paper's [start, end) notation.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[)"
	}
	return fmt.Sprintf("[%d, %d)", iv.Start, iv.End)
}

// Span returns the smallest interval covering every non-empty input, or
// the empty interval when there is none.
func Span(ivs ...Interval) Interval {
	out := Empty
	for _, iv := range ivs {
		if iv.IsEmpty() {
			continue
		}
		if out.IsEmpty() {
			out = iv
			continue
		}
		out = out.Union(iv)
	}
	return out
}

// SortIntervals sorts intervals in place by (Start, End).
func SortIntervals(ivs []Interval) {
	slices.SortFunc(ivs, Interval.Compare)
}

// CoalesceIntervals merges overlapping and meeting intervals into a
// minimal sorted sequence of disjoint, non-adjacent intervals covering
// the same point set. Empty inputs are dropped. The input is not
// modified.
func CoalesceIntervals(ivs []Interval) []Interval {
	work := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.IsEmpty() {
			work = append(work, iv)
		}
	}
	if len(work) == 0 {
		return nil
	}
	SortIntervals(work)
	out := work[:1]
	for _, iv := range work[1:] {
		last := &out[len(out)-1]
		if last.Adjacent(iv) {
			*last = last.Union(iv)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// SubtractAll returns the portion of iv not covered by any interval in
// cover, as a sorted sequence of disjoint intervals.
func SubtractAll(iv Interval, cover []Interval) []Interval {
	if iv.IsEmpty() {
		return nil
	}
	var out []Interval
	cur := iv.Start
	for _, c := range CoalesceIntervals(cover) {
		c = c.Intersect(iv)
		if c.IsEmpty() {
			continue
		}
		if c.Start > cur {
			out = append(out, Interval{Start: cur, End: c.Start})
		}
		if c.End > cur {
			cur = c.End
		}
	}
	if cur < iv.End {
		out = append(out, Interval{Start: cur, End: iv.End})
	}
	return out
}
