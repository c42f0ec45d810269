package incr

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

func testCtx() *dataflow.Context {
	return dataflow.NewContext(dataflow.WithParallelism(4), dataflow.WithDefaultPartitions(4))
}

// canonGraph renders a graph canonically: coalesced, flattened to
// state tuples, sorted, with property sets rendered by props.Props.String.
// Two graphs with the same canonical rendering encode byte-identically
// at the serving layer.
func canonGraph(g core.TGraph) string {
	c := g.Coalesce()
	vs, es := c.VertexStates(), c.EdgeStates()
	return canonStates(vs, es)
}

func canonStates(vs []core.VertexTuple, es []core.EdgeTuple) string {
	lines := make([]string, 0, len(vs)+len(es))
	for _, t := range vs {
		lines = append(lines, fmt.Sprintf("v %d [%d,%d) %s", t.ID, t.Interval.Start, t.Interval.End, t.Props.String()))
	}
	for _, t := range es {
		lines = append(lines, fmt.Sprintf("e %d %d->%d [%d,%d) %s", t.ID, t.Src, t.Dst, t.Interval.Start, t.Interval.End, t.Props.String()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// canonTuples canonicalizes raw uncoalesced tuples (a view Result) by
// round-tripping them through a VE and its coalesce.
func canonTuples(ctx *dataflow.Context, vs []core.VertexTuple, es []core.EdgeTuple) string {
	return canonGraph(core.NewVE(ctx, vs, es))
}

// canonTopology renders only the coalesced interval sets per entity —
// the most OGC can represent (it drops properties beyond the type).
func canonTopology(vs []core.VertexTuple, es []core.EdgeTuple) string {
	vIvs := make(map[core.VertexID][]temporal.Interval)
	for _, t := range vs {
		vIvs[t.ID] = append(vIvs[t.ID], t.Interval)
	}
	eIvs := make(map[core.EdgeKey][]temporal.Interval)
	for _, t := range es {
		eIvs[t.Key()] = append(eIvs[t.Key()], t.Interval)
	}
	var lines []string
	for id, ivs := range vIvs {
		for _, iv := range temporal.CoalesceIntervals(ivs) {
			lines = append(lines, fmt.Sprintf("v %d [%d,%d)", id, iv.Start, iv.End))
		}
	}
	for k, ivs := range eIvs {
		for _, iv := range temporal.CoalesceIntervals(ivs) {
			lines = append(lines, fmt.Sprintf("e %d %d->%d [%d,%d)", k.ID, k.Src, k.Dst, iv.Start, iv.End))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// genCase is one randomized scenario: a base tuple set plus delta
// batches containing inserts of new entities, interval extensions of
// existing ones, and out-of-window tuples that stretch the lifetime.
type genCase struct {
	baseV, deltaV []core.VertexTuple
	baseE, deltaE []core.EdgeTuple
	batches       [][]wal.Delta
}

func genScenario(r *rand.Rand) genCase {
	var c genCase
	groups := []string{"A", "B", "C"}
	nV := 2 + r.Intn(6)
	// nextFree tracks, per vertex, the first time not yet used by one
	// of its states, keeping same-entity states disjoint (a valid
	// TGraph never has two overlapping states of one entity).
	nextFree := make(map[core.VertexID]temporal.Time)
	genState := func(id core.VertexID) core.VertexTuple {
		start := nextFree[id] + temporal.Time(r.Intn(3))
		dur := 1 + temporal.Time(r.Intn(5))
		nextFree[id] = start + dur
		p := props.New(
			"type", "p",
			"grp", groups[r.Intn(len(groups))],
			"val", int64(r.Intn(10)),
		)
		return core.VertexTuple{ID: id, Interval: temporal.Interval{Start: start, End: start + dur}, Props: p}
	}
	for id := core.VertexID(1); id <= core.VertexID(nV); id++ {
		for n := 1 + r.Intn(2); n > 0; n-- {
			c.baseV = append(c.baseV, genState(id))
		}
	}
	eFree := make(map[core.EdgeID]temporal.Time)
	genEdge := func(eid core.EdgeID) core.EdgeTuple {
		start := eFree[eid] + temporal.Time(r.Intn(3))
		dur := 1 + temporal.Time(r.Intn(5))
		eFree[eid] = start + dur
		return core.EdgeTuple{
			ID:       eid,
			Src:      core.VertexID(1 + r.Intn(nV)),
			Dst:      core.VertexID(1 + r.Intn(nV)),
			Interval: temporal.Interval{Start: start, End: start + dur},
			Props:    props.New("type", "knows", "w", int64(r.Intn(5))),
		}
	}
	nE := 1 + r.Intn(5)
	edgeEnds := make(map[core.EdgeID][2]core.VertexID)
	for eid := core.EdgeID(100); eid < core.EdgeID(100+nE); eid++ {
		t := genEdge(eid)
		edgeEnds[eid] = [2]core.VertexID{t.Src, t.Dst}
		c.baseE = append(c.baseE, t)
		// Later states of the same edge must keep the same endpoints
		// (the edge key is id+src+dst).
		if r.Intn(2) == 0 {
			t2 := genEdge(eid)
			t2.Src, t2.Dst = t.Src, t.Dst
			c.baseE = append(c.baseE, t2)
		}
	}

	nBatches := 1 + r.Intn(3)
	for b := 0; b < nBatches; b++ {
		var batch []wal.Delta
		for n := 1 + r.Intn(4); n > 0; n-- {
			switch r.Intn(4) {
			case 0: // brand-new vertex
				id := core.VertexID(nV + 1 + r.Intn(4))
				t := genState(id)
				c.deltaV = append(c.deltaV, t)
				batch = append(batch, wal.VertexDelta(t))
			case 1: // interval extension of an existing vertex
				id := core.VertexID(1 + r.Intn(nV))
				t := genState(id)
				c.deltaV = append(c.deltaV, t)
				batch = append(batch, wal.VertexDelta(t))
			case 2: // out-of-window tuple: stretches the lifetime tail
				id := core.VertexID(1 + r.Intn(nV))
				start := nextFree[id] + 10 + temporal.Time(r.Intn(6))
				t := core.VertexTuple{
					ID:       id,
					Interval: temporal.Interval{Start: start, End: start + 1 + temporal.Time(r.Intn(3))},
					Props:    props.New("type", "p", "grp", groups[r.Intn(len(groups))], "val", int64(r.Intn(10))),
				}
				nextFree[id] = t.Interval.End
				c.deltaV = append(c.deltaV, t)
				batch = append(batch, wal.VertexDelta(t))
			case 3: // edge state (existing edge key or a new one)
				eid := core.EdgeID(100 + r.Intn(nE+2))
				t := genEdge(eid)
				if ends, ok := edgeEnds[eid]; ok {
					t.Src, t.Dst = ends[0], ends[1]
				} else {
					edgeEnds[eid] = [2]core.VertexID{t.Src, t.Dst}
				}
				c.deltaE = append(c.deltaE, t)
				batch = append(batch, wal.EdgeDelta(t))
			}
		}
		c.batches = append(c.batches, batch)
	}
	return c
}

// reps a view can be built from and compared against for each zoom.
var azoomReps = []core.Representation{core.RepRG, core.RepVE, core.RepOG}
var wzoomReps = []core.Representation{core.RepRG, core.RepVE, core.RepOG, core.RepOGC}

// TestQuickIncrAZoomEquivalence drives random delta batches through an
// AZoomView built on each representation and asserts the maintained
// result is byte-identical (canonical form) to a from-scratch aZoom of
// the fully-appended graph on that representation.
func TestQuickIncrAZoomEquivalence(t *testing.T) {
	ctx := testCtx()
	spec := core.GroupByProperty("grp", "G",
		props.Count("n"), props.Sum("s", "val"), props.Min("m", "val"), props.Any("a", "val"))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := genScenario(r)
		allV := append(append([]core.VertexTuple{}, c.baseV...), c.deltaV...)
		allE := append(append([]core.EdgeTuple{}, c.baseE...), c.deltaE...)
		for _, rep := range azoomReps {
			base, err := core.Convert(core.NewVE(ctx, c.baseV, c.baseE), rep)
			if err != nil {
				t.Fatalf("convert base to %v: %v", rep, err)
			}
			view, err := NewAZoomView(base, spec, Options{})
			if err != nil {
				t.Fatalf("build view on %v: %v", rep, err)
			}
			for _, batch := range c.batches {
				if _, err := view.Apply(batch); err != nil {
					t.Fatalf("apply on %v: %v", rep, err)
				}
			}
			fullRep, err := core.Convert(core.NewVE(ctx, allV, allE), rep)
			if err != nil {
				t.Fatalf("convert full to %v: %v", rep, err)
			}
			want, err := fullRep.AZoom(spec)
			if err != nil {
				t.Fatalf("batch azoom on %v: %v", rep, err)
			}
			vs, es := view.Result()
			got, wantC := canonTuples(ctx, vs, es), canonGraph(want)
			if got != wantC {
				t.Errorf("seed %d rep %v:\nincremental:\n%s\nbatch:\n%s", seed, rep, got, wantC)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIncrWZoomEquivalence does the same for WZoomView, across
// unit and change-based window specs (the latter always taking the
// full-fallback path) and all four representations; OGC is compared on
// coalesced topology, the most it represents. Every run ends with a
// delta that starts before the graph's lifetime: it shifts the window
// alignment, so the view must report Stats.FallbackFull and its rebuilt
// result must still equal the batch recompute.
func TestQuickIncrWZoomEquivalence(t *testing.T) {
	ctx := testCtx()
	shift := core.VertexTuple{
		ID:       1000,
		Interval: temporal.MustInterval(-3, 1),
		Props:    props.New("type", "p", "grp", "A", "val", int64(1)),
	}
	specs := []struct {
		spec core.WZoomSpec
		reps []core.Representation
	}{
		{
			spec: core.WZoomSpec{
				Window:   temporal.MustEveryN(4),
				VQuant:   temporal.Most(),
				EQuant:   temporal.Exists(),
				VResolve: props.ResolveSpec{Default: props.ResolveFirst, PerKey: map[string]props.Resolver{"val": props.ResolveLast}},
				EResolve: props.LastWins,
			},
			reps: wzoomReps,
		},
		{
			// Change-based windows derive boundaries from the coalesced
			// states; RG/OGC's batch paths window over uncoalesced
			// (snapshot-fragmented) states, a pre-existing cross-rep
			// divergence, so the comparison holds on VE and OG.
			spec: core.WZoomSpec{
				Window: temporal.MustEveryNChanges(3),
				VQuant: temporal.Exists(),
				EQuant: temporal.Exists(),
			},
			reps: []core.Representation{core.RepVE, core.RepOG},
		},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := genScenario(r)
		allV := append(append(append([]core.VertexTuple{}, c.baseV...), c.deltaV...), shift)
		allE := append(append([]core.EdgeTuple{}, c.baseE...), c.deltaE...)
		for si, sc := range specs {
			spec := sc.spec
			for _, rep := range sc.reps {
				base, err := core.Convert(core.NewVE(ctx, c.baseV, c.baseE), rep)
				if err != nil {
					t.Fatalf("convert base to %v: %v", rep, err)
				}
				view, err := NewWZoomView(base, spec, Options{})
				if err != nil {
					t.Fatalf("build view on %v: %v", rep, err)
				}
				for _, batch := range c.batches {
					if _, err := view.Apply(batch); err != nil {
						t.Fatalf("apply on %v: %v", rep, err)
					}
				}
				st, err := view.Apply([]wal.Delta{wal.VertexDelta(shift)})
				if err != nil {
					t.Fatalf("lifetime-shifting apply on %v: %v", rep, err)
				}
				if !st.FallbackFull {
					t.Errorf("seed %d spec %d rep %v: a delta starting before the lifetime did not set Stats.FallbackFull", seed, si, rep)
					return false
				}
				fullRep, err := core.Convert(core.NewVE(ctx, allV, allE), rep)
				if err != nil {
					t.Fatalf("convert full to %v: %v", rep, err)
				}
				want, err := fullRep.WZoom(spec)
				if err != nil {
					t.Fatalf("batch wzoom on %v: %v", rep, err)
				}
				vs, es := view.Result()
				var got, wantC string
				if rep == core.RepOGC {
					wc := want.Coalesce()
					got = canonTopology(vs, es)
					wantC = canonTopology(wc.VertexStates(), wc.EdgeStates())
				} else {
					got = canonTuples(ctx, vs, es)
					wantC = canonGraph(want)
				}
				if got != wantC {
					t.Errorf("seed %d spec %d rep %v:\nincremental:\n%s\nbatch:\n%s", seed, si, rep, got, wantC)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
