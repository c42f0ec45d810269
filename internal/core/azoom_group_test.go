package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/props"
	"repro/internal/temporal"
)

// refSplit is the temporal splitter of one state: iv cut at every
// boundary point strictly inside it.
func refSplit(iv temporal.Interval, points []temporal.Time) []temporal.Interval {
	if iv.IsEmpty() {
		return nil
	}
	var out []temporal.Interval
	cur := iv.Start
	i := sort.Search(len(points), func(i int) bool { return points[i] > iv.Start })
	for ; i < len(points) && points[i] < iv.End; i++ {
		out = append(out, temporal.Interval{Start: cur, End: points[i]})
		cur = points[i]
	}
	return append(out, temporal.Interval{Start: cur, End: iv.End})
}

// refAZoomGroup is Algorithm 2 lines 5-12 written out literally: split
// every state into its fragments at the group's boundary points, fold
// the fragments of each elementary interval in a map keyed by interval,
// then sort by interval.
func refAZoomGroup(spec AZoomSpec, agg props.BoundAgg, newID VertexID, states []HistoryItem) []VertexTuple {
	if len(states) == 0 {
		return nil
	}
	ivs := make([]temporal.Interval, len(states))
	for i, s := range states {
		ivs[i] = s.Interval
	}
	bounds := temporal.Boundaries(ivs)
	base := spec.newProps(newID, states[0].Props)
	type frag struct {
		iv  temporal.Interval
		agg props.AggState
	}
	idx := make(map[temporal.Interval]int)
	var frags []frag
	for _, s := range states {
		for _, fr := range refSplit(s.Interval, bounds) {
			i, ok := idx[fr]
			if !ok {
				idx[fr] = len(frags)
				frags = append(frags, frag{iv: fr, agg: agg.Init(s.Props)})
				continue
			}
			agg.Accumulate(frags[i].agg, s.Props)
		}
	}
	slices.SortStableFunc(frags, func(a, b frag) int { return a.iv.Compare(b.iv) })
	out := make([]VertexTuple, 0, len(frags))
	for _, f := range frags {
		out = append(out, VertexTuple{ID: newID, Interval: f.iv, Props: agg.Result(base, f.agg)})
	}
	return out
}

// randomGroupState draws one state over a short timeline, so that
// duplicate, touching and nested intervals are common; one in ten is
// empty. Its properties are a non-integral float, an int and a string,
// each sometimes missing.
func randomGroupState(r *rand.Rand) HistoryItem {
	s := temporal.Time(r.Intn(16))
	e := s + 1 + temporal.Time(r.Intn(8))
	if r.Intn(10) == 0 {
		e = s - temporal.Time(r.Intn(2))
	}
	var pairs []any
	if r.Intn(6) != 0 {
		pairs = append(pairs, "f", r.NormFloat64()*float64(int64(1)<<uint(r.Intn(40))))
	}
	if r.Intn(6) != 0 {
		pairs = append(pairs, "i", r.Intn(50))
	}
	if r.Intn(6) != 0 {
		pairs = append(pairs, "s", string(rune('a'+r.Intn(6))))
	}
	return HistoryItem{Interval: temporal.Interval{Start: s, End: e}, Props: props.New(pairs...)}
}

// groupAggFields is the pool the property test draws f_agg from: every
// built-in kind, and a custom combine (integer max).
var groupAggFields = []props.AggField{
	props.Count("n"),
	props.Sum("sum", "f"),
	props.Avg("avg", "f"),
	props.Sum("isum", "i"),
	props.Min("min", "s"),
	props.Max("max", "i"),
	props.Any("any", "s"),
	props.Custom("top", "i", func(a, b props.Value) props.Value {
		if a.Less(b) {
			return b
		}
		return a
	}),
}

// TestAZoomGroupMatchesReference: the slot sweep equals the literal
// split-map-sort reduction on random groups, to the last float ulp and
// including an empty versus a nil result.
func TestAZoomGroupMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	newProps := func(id VertexID, _ props.Props) props.Props {
		return props.New(props.TypeKey, "group", "name", int(id))
	}
	for c := 0; c < 3000; c++ {
		var fields []props.AggField
		for _, f := range groupAggFields {
			if r.Intn(2) == 0 {
				fields = append(fields, f)
			}
		}
		spec := AZoomSpec{Agg: props.AggSpec{Fields: fields}}
		if r.Intn(4) != 0 {
			spec.NewProps = newProps
		}
		states := make([]HistoryItem, r.Intn(24))
		for i := range states {
			states[i] = randomGroupState(r)
		}
		if c%7 == 0 && len(states) > 1 {
			// Exact duplicates of an earlier state's interval.
			states[len(states)-1].Interval = states[0].Interval
		}
		agg := spec.Agg.Bind()
		want := refAZoomGroup(spec, agg, VertexID(c), states)
		got := AZoomGroup(spec, agg, VertexID(c), states)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d states, %d fields, NewProps %v):\n got %v\nwant %v",
				c, len(states), len(fields), spec.NewProps != nil, got, want)
		}
	}
}

// TestAZoomGroupAllocations: a group costs its output slice, one
// property set per output state and the group's base properties — not
// a fragment slice per state or an accumulator per fragment.
func TestAZoomGroupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the pooled scratch at random")
	}
	states := make([]HistoryItem, 20)
	for i := range states {
		s := temporal.Time(i * 3 % 17)
		states[i] = HistoryItem{
			Interval: temporal.Interval{Start: s, End: s + 2 + temporal.Time(i%5)},
			Props:    props.New("f", float64(i)+0.25, "s", string(rune('a'+i%4))),
		}
	}
	spec := AZoomSpec{
		NewProps: func(id VertexID, _ props.Props) props.Props { return props.New(props.TypeKey, "group") },
		Agg:      props.AggSpec{Fields: []props.AggField{props.Count("n"), props.Sum("sum", "f"), props.Min("min", "s")}},
	}
	agg := spec.Agg.Bind()
	outputs := len(AZoomGroup(spec, agg, 1, states))
	allocs := testing.AllocsPerRun(100, func() { AZoomGroup(spec, agg, 1, states) })
	if limit := float64(outputs + 4); allocs > limit {
		t.Errorf("AZoomGroup of %d states with %d outputs: %v allocs, want at most %v", len(states), outputs, allocs, limit)
	}
}
