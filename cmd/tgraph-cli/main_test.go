package main

import (
	"testing"

	tgraph "repro"
)

// TestLoadRange: -from and -to both 0 load everything; any other pair
// must be a non-empty range, or the command refuses it instead of
// silently loading every state.
func TestLoadRange(t *testing.T) {
	for _, tc := range []struct {
		from, to int64
		want     tgraph.Interval
		ok       bool
	}{
		{0, 0, tgraph.Interval{}, true},
		{0, 5, tgraph.MustInterval(0, 5), true},
		{5, 10, tgraph.MustInterval(5, 10), true},
		{-3, 0, tgraph.MustInterval(-3, 0), true},
		{10, 5, tgraph.Interval{}, false},
		{5, 5, tgraph.Interval{}, false},
		{5, 0, tgraph.Interval{}, false},
		{0, -2, tgraph.Interval{}, false},
	} {
		got, err := loadRange(tc.from, tc.to)
		if (err == nil) != tc.ok {
			t.Errorf("loadRange(%d, %d): err = %v, want ok = %v", tc.from, tc.to, err, tc.ok)
			continue
		}
		if got != tc.want {
			t.Errorf("loadRange(%d, %d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}
