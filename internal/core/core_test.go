package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/temporal"
)

func TestRepresentationString(t *testing.T) {
	for r, want := range map[Representation]string{
		RepVE: "VE", RepRG: "RG", RepOG: "OG", RepOGC: "OGC",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", int(r), r.String())
		}
	}
}

func TestConversionsPreserveStates(t *testing.T) {
	ctx := testCtx()
	orig := figure1(ctx)
	for _, rep := range []Representation{RepVE, RepOG, RepRG, RepOGC} {
		conv, err := Convert(orig, rep)
		if err != nil {
			t.Fatalf("Convert(%v): %v", rep, err)
		}
		if conv.Rep() != rep {
			t.Errorf("Convert produced %v, want %v", conv.Rep(), rep)
		}
		if rep == RepOGC {
			// OGC keeps topology+type only; check presence intervals.
			vs := canonV(t, conv)
			if len(vs) != 4 {
				// Bob's two states merge: same type, adjacent.
				if len(vs) != 3 {
					t.Errorf("OGC vertex states = %v", fmtV(vs))
				}
			}
			continue
		}
		requireGraphsEqual(t, rep.String(), conv, orig)
		// Round trip back to VE.
		back := ToVE(conv)
		requireGraphsEqual(t, rep.String()+"->VE", back, orig)
	}
}

func TestConvertUnknown(t *testing.T) {
	if _, err := Convert(figure1(testCtx()), Representation(99)); err == nil {
		t.Error("unknown representation: want error")
	}
}

func TestConvertIdentity(t *testing.T) {
	g := figure1(testCtx())
	if ToVE(g) != g {
		t.Error("ToVE of a VE should be identity")
	}
	og := ToOG(g)
	if ToOG(og) != og {
		t.Error("ToOG of an OG should be identity")
	}
	rg := ToRG(g)
	if ToRG(rg) != rg {
		t.Error("ToRG of an RG should be identity")
	}
	ogc := ToOGC(g)
	if ToOGC(ogc) != ogc {
		t.Error("ToOGC of an OGC should be identity")
	}
}

func TestCoalesceVE(t *testing.T) {
	ctx := testCtx()
	// Cat's state split into adjacent value-equivalent fragments.
	vs := []VertexTuple{
		{ID: cat, Interval: temporal.MustInterval(1, 4), Props: props.New("type", "person")},
		{ID: cat, Interval: temporal.MustInterval(4, 9), Props: props.New("type", "person")},
		{ID: ann, Interval: temporal.MustInterval(1, 3), Props: props.New("type", "person", "x", 1)},
		{ID: ann, Interval: temporal.MustInterval(3, 5), Props: props.New("type", "person", "x", 2)},
	}
	g := NewVE(ctx, vs, nil)
	if g.IsCoalesced() {
		t.Error("fresh VE must not claim coalesced")
	}
	c := g.Coalesce()
	if !c.IsCoalesced() {
		t.Error("Coalesce result must claim coalesced")
	}
	states := canonV(t, c)
	if len(states) != 3 {
		t.Fatalf("coalesced states = %v, want 3", fmtV(states))
	}
	if !states[2].Interval.Equal(temporal.MustInterval(1, 9)) {
		t.Errorf("cat coalesced to %v, want [1,9)", states[2].Interval)
	}
	if c.(*VE).Coalesce() != c {
		t.Error("Coalesce of coalesced graph should be identity")
	}
}

func TestCoalesceOGNarrow(t *testing.T) {
	ctx := testCtx()
	og := NewOG(ctx, []OGVertex{{
		ID: 1,
		History: []HistoryItem{
			{Interval: temporal.MustInterval(3, 5), Props: props.New("type", "a")},
			{Interval: temporal.MustInterval(1, 3), Props: props.New("type", "a")},
		},
	}}, nil)
	ctx.ResetMetrics()
	c := og.Coalesce()
	if ctx.Metrics().Shuffles != 0 {
		t.Errorf("OG coalescing must be shuffle-free, saw %d shuffles", ctx.Metrics().Shuffles)
	}
	vs := c.VertexStates()
	if len(vs) != 1 || !vs[0].Interval.Equal(temporal.MustInterval(1, 5)) {
		t.Errorf("OG coalesce = %v", fmtV(vs))
	}
}

func TestRGSnapshotExtraction(t *testing.T) {
	rg := ToRG(figure1(testCtx()))
	// Boundaries of G1: 1, 2, 5, 7, 9 -> 4 elementary snapshots.
	if rg.NumSnapshots() != 4 {
		t.Fatalf("snapshots = %d, want 4", rg.NumSnapshots())
	}
	wantIvs := []temporal.Interval{
		temporal.MustInterval(1, 2), temporal.MustInterval(2, 5),
		temporal.MustInterval(5, 7), temporal.MustInterval(7, 9),
	}
	for i, s := range rg.Snapshots() {
		if !s.Interval.Equal(wantIvs[i]) {
			t.Errorf("snapshot %d interval = %v, want %v", i, s.Interval, wantIvs[i])
		}
		if err := s.Graph.Validate(); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
	// Snapshot [2,5): Ann, Bob, Cat and edge e1.
	s := rg.Snapshots()[1]
	if s.Graph.NumVertices() != 3 || s.Graph.NumEdges() != 1 {
		t.Errorf("snapshot [2,5): %d vertices, %d edges", s.Graph.NumVertices(), s.Graph.NumEdges())
	}
}

func TestOGCBitsets(t *testing.T) {
	ogc := ToOGC(figure1(testCtx()))
	if len(ogc.Intervals()) != 4 {
		t.Fatalf("OGC intervals = %v", ogc.Intervals())
	}
	if ogc.NumVertices() != 3 || ogc.NumEdges() != 2 {
		t.Errorf("OGC counts: %d, %d", ogc.NumVertices(), ogc.NumEdges())
	}
	for _, part := range ogc.Graph().Vertices().Partitions() {
		for _, v := range part {
			switch v.ID {
			case ann: // [1,7) covers [1,2),[2,5),[5,7)
				if v.Attr.Bits.String() != "[1, 1, 1, 0]" {
					t.Errorf("Ann bits = %s", v.Attr.Bits)
				}
			case bob: // [2,9)
				if v.Attr.Bits.String() != "[0, 1, 1, 1]" {
					t.Errorf("Bob bits = %s", v.Attr.Bits)
				}
			case cat: // [1,9)
				if v.Attr.Bits.String() != "[1, 1, 1, 1]" {
					t.Errorf("Cat bits = %s", v.Attr.Bits)
				}
			}
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	ctx := testCtx()
	cases := map[string]struct {
		vs []VertexTuple
		es []EdgeTuple
	}{
		"missing type": {
			vs: []VertexTuple{{ID: 1, Interval: temporal.MustInterval(0, 5), Props: props.New("x", 1)}},
		},
		"overlapping states": {
			vs: []VertexTuple{
				{ID: 1, Interval: temporal.MustInterval(0, 5), Props: props.New("type", "a")},
				{ID: 1, Interval: temporal.MustInterval(3, 8), Props: props.New("type", "b")},
			},
		},
		"dangling edge": {
			vs: []VertexTuple{
				{ID: 1, Interval: temporal.MustInterval(0, 5), Props: props.New("type", "a")},
				{ID: 2, Interval: temporal.MustInterval(0, 3), Props: props.New("type", "a")},
			},
			es: []EdgeTuple{{ID: 1, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 5), Props: props.New("type", "e")}},
		},
		"changing endpoints": {
			vs: []VertexTuple{
				{ID: 1, Interval: temporal.MustInterval(0, 9), Props: props.New("type", "a")},
				{ID: 2, Interval: temporal.MustInterval(0, 9), Props: props.New("type", "a")},
			},
			es: []EdgeTuple{
				{ID: 7, Src: 1, Dst: 2, Interval: temporal.MustInterval(0, 3), Props: props.New("type", "e")},
				{ID: 7, Src: 2, Dst: 1, Interval: temporal.MustInterval(3, 6), Props: props.New("type", "e")},
			},
		},
	}
	for name, c := range cases {
		if err := Validate(NewVE(ctx, c.vs, c.es)); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

func TestAZoomSpecValidation(t *testing.T) {
	g := figure1(testCtx())
	if _, err := g.AZoom(AZoomSpec{}); err == nil {
		t.Error("aZoom without Skolem: want error")
	}
	if _, err := g.WZoom(WZoomSpec{}); err == nil {
		t.Error("wZoom without window: want error")
	}
}

// randomValidGraph generates a random valid TGraph: vertices with
// sequential states, edges confined to co-existence of their endpoints.
func randomValidGraph(r *rand.Rand, ctx *dataflow.Context) *VE {
	nV := 2 + r.Intn(8)
	groups := []string{"red", "green", "blue"}
	var vs []VertexTuple
	presence := make(map[VertexID][]temporal.Interval)
	for i := 0; i < nV; i++ {
		id := VertexID(i + 1)
		cur := temporal.Time(r.Intn(4))
		nStates := 1 + r.Intn(3)
		for s := 0; s < nStates; s++ {
			end := cur + 1 + temporal.Time(r.Intn(5))
			p := props.New("type", "node", "grp", groups[r.Intn(len(groups))], "w", int64(r.Intn(5)))
			vs = append(vs, VertexTuple{ID: id, Interval: temporal.Interval{Start: cur, End: end}, Props: p})
			presence[id] = append(presence[id], temporal.Interval{Start: cur, End: end})
			cur = end
			if r.Intn(3) == 0 {
				cur += temporal.Time(1 + r.Intn(2)) // gap
			}
		}
	}
	var es []EdgeTuple
	nE := r.Intn(10)
	for i := 0; i < nE; i++ {
		src := VertexID(1 + r.Intn(nV))
		dst := VertexID(1 + r.Intn(nV))
		// Edge must lie within co-existence of endpoints.
		span := temporal.Interval{Start: 0, End: 12}
		var alive []temporal.Interval
		for _, si := range presence[src] {
			for _, di := range presence[dst] {
				iv := si.Intersect(di).Intersect(span)
				if !iv.IsEmpty() {
					alive = append(alive, iv)
				}
			}
		}
		if len(alive) == 0 {
			continue
		}
		iv := alive[r.Intn(len(alive))]
		es = append(es, EdgeTuple{
			ID: EdgeID(i + 1), Src: src, Dst: dst, Interval: iv,
			Props: props.New("type", "link"),
		})
	}
	return NewVE(ctx, vs, es)
}

// TestAZoomCrossRepresentationEquivalence: all representations
// supporting aZoom^T must produce identical graphs (after coalescing)
// on random valid inputs, coalesced and fragmented — split,
// out-of-order states, which VE's gathered vertex index must keep in
// input order.
func TestAZoomCrossRepresentationEquivalence(t *testing.T) {
	ctx := testCtx()
	spec := GroupByProperty("grp", "cluster", props.Count("n"), props.Sum("wsum", "w"))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomValidGraph(r, ctx)
		if err := Validate(g); err != nil {
			t.Fatalf("generator produced invalid graph: %v", err)
		}
		for _, in := range []struct {
			label string
			g     *VE
		}{{"coalesced", g}, {"fragmented", fragmented(r, g)}} {
			veOut, err := in.g.AZoom(spec)
			if err != nil {
				t.Fatalf("VE aZoom: %v", err)
			}
			ogOut, err := ToOG(in.g).AZoom(spec)
			if err != nil {
				t.Fatalf("OG aZoom: %v", err)
			}
			rgOut, err := ToRG(in.g).AZoom(spec)
			if err != nil {
				t.Fatalf("RG aZoom: %v", err)
			}
			requireGraphsEqual(t, in.label+": OG vs VE", ogOut, veOut)
			requireGraphsEqual(t, in.label+": RG vs VE", rgOut, veOut)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fragmented splits random states of g into two adjacent
// value-equivalent halves: the same graph, uncoalesced.
func fragmented(r *rand.Rand, g *VE) *VE {
	var vs []VertexTuple
	for _, v := range g.VertexStates() {
		if v.Interval.Duration() > 1 && r.Intn(2) == 0 {
			mid := v.Interval.Start + 1 + temporal.Time(r.Intn(int(v.Interval.Duration())-1))
			head := v
			head.Interval.End, v.Interval.Start = mid, mid
			vs = append(vs, v, head) // out of order on purpose
			continue
		}
		vs = append(vs, v)
	}
	var es []EdgeTuple
	for _, e := range g.EdgeStates() {
		if e.Interval.Duration() > 1 && r.Intn(2) == 0 {
			mid := e.Interval.Start + 1 + temporal.Time(r.Intn(int(e.Interval.Duration())-1))
			head := e
			head.Interval.End, e.Interval.Start = mid, mid
			es = append(es, e, head)
			continue
		}
		es = append(es, e)
	}
	return NewVE(g.ctx, vs, es)
}

// requireStatesIdentical compares two zoom results state for state in
// (id, interval) order WITHOUT coalescing them first: both must have
// emitted the same per-window states.
func requireStatesIdentical(t *testing.T, label string, got, want TGraph) {
	t.Helper()
	sortV := func(g TGraph) []string {
		out := fmtV(g.VertexStates())
		sort.Strings(out)
		return out
	}
	sortE := func(g TGraph) []string {
		out := fmtE(g.EdgeStates())
		sort.Strings(out)
		return out
	}
	if gv, wv := sortV(got), sortV(want); !reflect.DeepEqual(gv, wv) {
		t.Errorf("%s: vertex states\ngot:  %v\nwant: %v", label, gv, wv)
	}
	if ge, we := sortE(got), sortE(want); !reflect.DeepEqual(ge, we) {
		t.Errorf("%s: edge states\ngot:  %v\nwant: %v", label, ge, we)
	}
}

// TestWZoomCrossRepresentationEquivalence: likewise for wZoom^T, over
// random specs — unit and change-based windows down to a single window
// over the whole lifetime, every quantifier, first/last/any — on a
// coalesced graph and on the same graph fragmented into adjacent
// value-equivalent states. VE (one grouped pass per relation) and OG
// (a narrow map over history arrays) must emit identical per-window
// states either way, whether VE coalesces inside the zoom or was
// coalesced before it; RG windows over raw snapshots, so it is held to
// the coalesced answer on unit windows.
func TestWZoomCrossRepresentationEquivalence(t *testing.T) {
	ctx := testCtx()
	quants := []temporal.Quantifier{temporal.All(), temporal.Most(), temporal.Exists(), temporal.MustAtLeast(0.4)}
	resolves := []props.ResolveSpec{
		{Default: props.ResolveFirst}, {Default: props.ResolveLast}, {Default: props.ResolveAny},
		{Default: props.ResolveLast, PerKey: map[string]props.Resolver{"w": props.ResolveFirst}},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomValidGraph(r, ctx)
		spec := WZoomSpec{
			VQuant:   quants[r.Intn(len(quants))],
			EQuant:   quants[r.Intn(len(quants))],
			VResolve: resolves[r.Intn(len(resolves))],
			EResolve: resolves[r.Intn(len(resolves))],
		}
		switch r.Intn(4) {
		case 0:
			spec.Window = temporal.MustEveryNChanges(1 + r.Intn(4))
		case 1:
			spec.Window = temporal.MustEveryN(1000) // one window
		default:
			spec.Window = temporal.MustEveryN(temporal.Time(1 + r.Intn(5)))
		}
		unit := !temporal.UsesChangePoints(spec.Window)
		for _, in := range []struct {
			label string
			g     *VE
		}{{"coalesced", g}, {"fragmented", fragmented(r, g)}} {
			veOut, err := in.g.WZoom(spec)
			if err != nil {
				t.Fatalf("VE wZoom: %v", err)
			}
			pre, err := in.g.Coalesce().WZoom(spec)
			if err != nil {
				t.Fatalf("VE wZoom of coalesced input: %v", err)
			}
			ogOut, err := ToOG(in.g).WZoom(spec)
			if err != nil {
				t.Fatalf("OG wZoom: %v", err)
			}
			requireStatesIdentical(t, in.label+": OG vs VE", ogOut, veOut)
			requireStatesIdentical(t, in.label+": VE coalesced before vs inside", pre, veOut)
			if unit {
				rgOut, err := ToRG(in.g).WZoom(spec)
				if err != nil {
					t.Fatalf("RG wZoom: %v", err)
				}
				requireGraphsEqual(t, in.label+": RG vs VE", rgOut, veOut)
			}
		}
		if t.Failed() {
			t.Logf("seed %d, spec %+v", seed, spec)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestWZoomOGCMatchesVEOnTopology: for type-only graphs, the OGC result
// must match the VE result exactly.
func TestWZoomOGCMatchesVEOnTopology(t *testing.T) {
	ctx := testCtx()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomValidGraph(r, ctx)
		// Project all attributes away except type.
		var vs []VertexTuple
		for _, v := range g.VertexStates() {
			vs = append(vs, VertexTuple{ID: v.ID, Interval: v.Interval, Props: props.New("type", v.Props.Type())})
		}
		var es []EdgeTuple
		for _, e := range g.EdgeStates() {
			es = append(es, EdgeTuple{ID: e.ID, Src: e.Src, Dst: e.Dst, Interval: e.Interval, Props: props.New("type", e.Props.Type())})
		}
		tg := NewVE(ctx, vs, es)
		spec := WZoomSpec{
			Window: temporal.MustEveryN(temporal.Time(1 + r.Intn(4))),
			VQuant: temporal.All(),
			EQuant: temporal.Exists(),
		}
		// VQuant more restrictive: exercises dangling-edge removal too.
		// Note EQuant exists with VQuant all means dangling edges MUST
		// be removed.
		spec2 := spec
		spec2.VQuant, spec2.EQuant = temporal.All(), temporal.All()
		for _, sp := range []WZoomSpec{spec, spec2} {
			veOut, err := tg.WZoom(sp)
			if err != nil {
				t.Fatalf("VE wZoom: %v", err)
			}
			ogcOut, err := ToOGC(tg).WZoom(sp)
			if err != nil {
				t.Fatalf("OGC wZoom: %v", err)
			}
			requireGraphsEqual(t, "OGC vs VE", ogcOut, veOut)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWZoomOutputValid: wZoom output must always be a valid TGraph
// (dangling-edge removal working), for any quantifier combination.
func TestWZoomOutputValid(t *testing.T) {
	ctx := testCtx()
	quants := []temporal.Quantifier{temporal.All(), temporal.Most(), temporal.Exists(), temporal.MustAtLeast(0.6)}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomValidGraph(r, ctx)
		spec := WZoomSpec{
			Window: temporal.MustEveryN(temporal.Time(1 + r.Intn(4))),
			VQuant: quants[r.Intn(len(quants))],
			EQuant: quants[r.Intn(len(quants))],
		}
		out, err := g.WZoom(spec)
		if err != nil {
			t.Fatalf("wZoom: %v", err)
		}
		if err := Validate(out.Coalesce()); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAZoomOutputValidAfterCoalesce: aZoom output (coalesced) must be a
// valid TGraph.
func TestAZoomOutputValid(t *testing.T) {
	ctx := testCtx()
	spec := GroupByProperty("grp", "cluster", props.Count("n"))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomValidGraph(r, ctx)
		out, err := g.AZoom(spec)
		if err != nil {
			t.Fatalf("aZoom: %v", err)
		}
		if err := Validate(out.Coalesce()); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWZoomNoEffectOnCoarseGraph: zooming with windows finer than the
// graph's resolution returns (semantically) the input, per Section 2.3.
func TestWZoomFinerThanResolution(t *testing.T) {
	ctx := testCtx()
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 10), Props: props.New("type", "a")},
	}
	g := NewVE(ctx, vs, nil)
	g.coalesced = true
	out, err := g.WZoom(WZoomSpec{Window: temporal.MustEveryN(1), VQuant: temporal.All(), EQuant: temporal.All()})
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsEqual(t, "unit windows", out, g)
}

func TestWZoomUncoalescedInputIsCoalescedFirst(t *testing.T) {
	ctx := testCtx()
	// Fragmented equal states: coverage per window must count once.
	vs := []VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(0, 2), Props: props.New("type", "a")},
		{ID: 1, Interval: temporal.MustInterval(2, 4), Props: props.New("type", "a")},
	}
	g := NewVE(ctx, vs, nil) // coalesced flag false
	out, err := g.WZoom(WZoomSpec{Window: temporal.MustEveryN(4), VQuant: temporal.All(), EQuant: temporal.All()})
	if err != nil {
		t.Fatal(err)
	}
	states := canonV(t, out)
	if len(states) != 1 || !states[0].Interval.Equal(temporal.MustInterval(0, 4)) {
		t.Errorf("states = %v", fmtV(states))
	}
	// Same via OG path.
	out2, err := ToOG(g).WZoom(WZoomSpec{Window: temporal.MustEveryN(4), VQuant: temporal.All(), EQuant: temporal.All()})
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsEqual(t, "OG uncoalesced", out2, out)
}

func TestChangeBasedWindows(t *testing.T) {
	g := figure1(testCtx())
	// G1 has change points 1,2,5,7,9 -> states [1,2),[2,5),[5,7),[7,9).
	// 2-change windows: [1,5), [5,9).
	out, err := g.WZoom(WZoomSpec{
		Window: temporal.MustEveryNChanges(2),
		VQuant: temporal.Exists(), EQuant: temporal.Exists(),
		VResolve: props.LastWins, EResolve: props.LastWins,
	})
	if err != nil {
		t.Fatal(err)
	}
	vs := canonV(t, out)
	for _, v := range vs {
		if v.ID == ann && !v.Interval.Equal(temporal.MustInterval(1, 9)) {
			t.Errorf("Ann = %v, want [1,9) (exists in both windows)", v.Interval)
		}
	}
}
