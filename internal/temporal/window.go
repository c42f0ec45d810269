package temporal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Window associates a window number with its period of validity,
// mirroring the paper's temporal relation W with schema (d | T).
type Window struct {
	Index    int
	Interval Interval
}

// WindowSpec is a tumbling (non-overlapping) temporal window
// specification of the form "n {unit|changes}". Given the lifetime of a
// TGraph and its change points, a spec materialises the window relation
// used by wZoom^T.
type WindowSpec interface {
	// Windows returns the sequence of consecutive windows covering
	// lifetime. changePoints lists the sorted times at which the graph
	// changed (snapshot boundaries), used by change-based windows.
	Windows(lifetime Interval, changePoints []Time) []Window
	String() string
}

// UsesChangePoints reports whether the spec's window relation depends
// on the graph's change points. A spec says so through an optional
// UsesChangePoints method (both built-ins have one); a spec without it
// is assumed to use them. When it reports false, Windows may be given
// nil change points, and a state insertion can move the relation only
// by growing the lifetime.
func UsesChangePoints(w WindowSpec) bool {
	if u, ok := w.(interface{ UsesChangePoints() bool }); ok {
		return u.UsesChangePoints()
	}
	return true
}

// unitWindow implements "n unit": windows of n ticks each, aligned to
// the start of the graph lifetime.
type unitWindow struct {
	n Time
}

// EveryN returns a window specification producing consecutive windows
// of n time points each, e.g. EveryN(3) over months yields quarters.
func EveryN(n Time) (WindowSpec, error) {
	if n <= 0 {
		return nil, fmt.Errorf("temporal: window size must be positive, got %d", n)
	}
	return unitWindow{n: n}, nil
}

// MustEveryN is like EveryN but panics on invalid size.
func MustEveryN(n Time) WindowSpec {
	w, err := EveryN(n)
	if err != nil {
		panic(err)
	}
	return w
}

func (w unitWindow) Windows(lifetime Interval, _ []Time) []Window {
	if lifetime.IsEmpty() {
		return nil
	}
	out := make([]Window, 0, int(lifetime.Duration()/w.n)+1)
	idx := 0
	for s := lifetime.Start; s < lifetime.End; s += w.n {
		// The final window is clamped to the lifetime end (the way
		// change-based windows end at the last boundary): points past the
		// lifetime are unobservable, and letting the window overhang would
		// make quantifiers judge entities against time that cannot exist —
		// an entity alive for the whole observable tail would fail All().
		end := s + w.n
		if end > lifetime.End {
			end = lifetime.End
		}
		out = append(out, Window{Index: idx, Interval: Interval{Start: s, End: end}})
		idx++
	}
	return out
}

func (w unitWindow) String() string { return fmt.Sprintf("%d units", w.n) }

// UsesChangePoints reports that unit windows ignore the change points:
// their relation depends only on the lifetime. Incremental maintenance
// (internal/incr) keys off this to decide whether a delta can
// restructure the window relation.
func (w unitWindow) UsesChangePoints() bool { return false }

// changeWindow implements "n changes": each window spans n consecutive
// states of the graph (n elementary intervals between change points).
type changeWindow struct {
	n int
}

// EveryNChanges returns a window specification in which each window
// covers n consecutive change intervals (snapshots) of the graph.
func EveryNChanges(n int) (WindowSpec, error) {
	if n <= 0 {
		return nil, fmt.Errorf("temporal: change-window size must be positive, got %d", n)
	}
	return changeWindow{n: n}, nil
}

// MustEveryNChanges is like EveryNChanges but panics on invalid size.
func MustEveryNChanges(n int) WindowSpec {
	w, err := EveryNChanges(n)
	if err != nil {
		panic(err)
	}
	return w
}

func (w changeWindow) Windows(lifetime Interval, changePoints []Time) []Window {
	if lifetime.IsEmpty() {
		return nil
	}
	// Build the ordered list of boundaries inside the lifetime:
	// lifetime.Start, interior change points, lifetime.End.
	bounds := make([]Time, 0, len(changePoints)+2)
	bounds = append(bounds, lifetime.Start)
	for _, p := range changePoints {
		if p > lifetime.Start && p < lifetime.End {
			bounds = append(bounds, p)
		}
	}
	bounds = append(bounds, lifetime.End)

	var out []Window
	idx := 0
	for i := 0; i+1 < len(bounds); i += w.n {
		end := i + w.n
		if end > len(bounds)-1 {
			end = len(bounds) - 1
		}
		out = append(out, Window{Index: idx, Interval: Interval{Start: bounds[i], End: bounds[end]}})
		idx++
	}
	return out
}

func (w changeWindow) String() string { return fmt.Sprintf("%d changes", w.n) }

// UsesChangePoints reports that change-based windows derive their
// boundaries from the change points, so any state insertion can
// restructure the whole window relation.
func (w changeWindow) UsesChangePoints() bool { return true }

// ParseWindowSpec parses the paper's textual window specification
// "n {unit|changes}", e.g. "3 months", "10 min", "2 changes". All time
// units other than "changes" are treated as ticks of the dataset's
// temporal resolution; "3 months" therefore means 3 ticks.
func ParseWindowSpec(s string) (WindowSpec, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) != 2 {
		return nil, fmt.Errorf("temporal: window spec %q: want \"n {unit|changes}\"", s)
	}
	n, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("temporal: window spec %q: %v", s, err)
	}
	unit := strings.ToLower(fields[1])
	if unit == "changes" || unit == "change" {
		return EveryNChanges(int(n))
	}
	return EveryN(Time(n))
}

// WindowOf returns the window containing time point t, using binary
// search over the sorted window relation. ok is false if t is outside
// every window.
func WindowOf(windows []Window, t Time) (Window, bool) {
	lo, hi := 0, len(windows)
	for lo < hi {
		mid := (lo + hi) / 2
		w := windows[mid]
		switch {
		case t < w.Interval.Start:
			hi = mid
		case t >= w.Interval.End:
			lo = mid + 1
		default:
			return w, true
		}
	}
	return Window{}, false
}

// OverlappingWindows returns the consecutive run of windows that
// overlap iv, found by binary search over the sorted, disjoint window
// relation. The result is a capacity-capped sub-slice of windows, not a
// copy: callers must treat it as read-only.
func OverlappingWindows(windows []Window, iv Interval) []Window {
	if iv.IsEmpty() {
		return nil
	}
	lo := sort.Search(len(windows), func(i int) bool { return windows[i].Interval.End > iv.Start })
	hi := lo + sort.Search(len(windows)-lo, func(i int) bool { return windows[lo+i].Interval.Start >= iv.End })
	if lo == hi {
		return nil
	}
	return windows[lo:hi:hi]
}
