package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/temporal"
)

// referenceEncode is the encoder encodeStates replaced, kept as the
// specification of the wire format: build the documented GraphJSON
// value and let encoding/json render it.
func referenceEncode(rep string, life temporal.Interval, vs []core.VertexTuple, es []core.EdgeTuple) []byte {
	out := GraphJSON{
		Rep:      rep,
		Lifetime: [2]int64{int64(life.Start), int64(life.End)},
		Vertices: []StateJSON{},
		Edges:    []StateJSON{},
	}
	propsMap := func(p props.Props) map[string]string {
		if p.Len() == 0 {
			return nil
		}
		m := make(map[string]string, p.Len())
		p.Range(func(k props.Key, v props.Value) bool {
			m[k.Name()] = v.String()
			return true
		})
		return m
	}
	for _, v := range vs {
		out.Vertices = append(out.Vertices, StateJSON{
			ID: int64(v.ID), Start: int64(v.Interval.Start), End: int64(v.Interval.End),
			Props: propsMap(v.Props),
		})
	}
	for _, e := range es {
		out.Edges = append(out.Edges, StateJSON{
			ID: int64(e.ID), Src: int64(e.Src), Dst: int64(e.Dst),
			Start: int64(e.Interval.Start), End: int64(e.Interval.End),
			Props: propsMap(e.Props),
		})
	}
	less := func(s []StateJSON) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := s[i], s[j]
			if a.ID != b.ID {
				return a.ID < b.ID
			}
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			if a.Dst != b.Dst {
				return a.Dst < b.Dst
			}
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.End < b.End
		}
	}
	sort.Slice(out.Vertices, less(out.Vertices))
	sort.Slice(out.Edges, less(out.Edges))
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return b
}

// sortStates is the sort encodeStates ran on its arguments before the
// one sort per response moved into core: states by (id, src, dst,
// interval), stably, in place.
func sortStates(vs []core.VertexTuple, es []core.EdgeTuple) {
	slices.SortStableFunc(vs, func(a, b core.VertexTuple) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), a.Interval.Compare(b.Interval))
	})
	slices.SortStableFunc(es, func(a, b core.EdgeTuple) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), a.Interval.Compare(b.Interval))
	})
}

// coalesceEncode is the path encodeGraph replaced, kept as its
// reference: coalesce through the graph's own Coalesce (a grouping job
// on VE), collect both relations, sort them, encode.
func coalesceEncode(g core.TGraph) []byte {
	c := g.Coalesce()
	vs, es := c.VertexStates(), c.EdgeStates()
	sortStates(vs, es)
	return encodeStates(c.Rep().String(), c.Lifetime(), vs, es)
}

// checkEncode compares the two encoders on one result, each side on its
// own copy of the states; encodeStates gets them sorted.
func checkEncode(t *testing.T, rep string, life temporal.Interval, vs []core.VertexTuple, es []core.EdgeTuple) bool {
	t.Helper()
	want := referenceEncode(rep, life, vs, es)
	vs, es = slices.Clone(vs), slices.Clone(es)
	sortStates(vs, es)
	got := encodeStates(rep, life, vs, es)
	if !bytes.Equal(got, want) {
		t.Errorf("encodeStates differs from json.Marshal(GraphJSON):\n got %s\nwant %s", got, want)
		return false
	}
	if cap(got) != len(got) {
		t.Errorf("body has %d bytes of slack; cached bodies must be exactly sized", cap(got)-len(got))
		return false
	}
	return true
}

// nasty holds the strings the escaper has a rule for: the quote, the
// backslash, the HTML characters, control bytes with and without a
// short escape, DEL, U+2028/2029, non-ASCII, and invalid UTF-8 (a lone
// continuation byte, a truncated sequence, a surrogate half).
var nasty = []string{
	"", "a", "type", `"`, `\`, "<", ">", "&", "</script>", "\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"\u2028", "\u2029", "é", "日本", "🙂", "\x80", "\xff", "\xe2\x80", "a\xc3", "\xed\xa0\x80", "\ufffd", "<nil>", "NaN",
}

func randString(r *rand.Rand) string {
	var s string
	for n := r.Intn(4); n >= 0; n-- {
		s += nasty[r.Intn(len(nasty))]
	}
	return s
}

func randValue(r *rand.Rand) props.Value {
	switch r.Intn(6) {
	case 0:
		return props.Nil()
	case 1:
		return props.Bool(r.Intn(2) == 0)
	case 2:
		return props.Int(r.Int63() - r.Int63())
	case 3:
		return props.Float([]float64{0, math.Copysign(0, -1), 1e21, 1e-7, -2.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), r.NormFloat64()}[r.Intn(10)])
	default:
		return props.StringVal(randString(r))
	}
}

func randProps(r *rand.Rand) props.Props {
	var b props.Builder
	for n := r.Intn(5); n > 0; n-- {
		b.Set(randString(r), randValue(r))
	}
	return b.Build() // zero fields: the empty set, encoded without "props"
}

// randResult draws a result with no two states equal on every sort
// field (the reference's sort is unstable): state i starts at time i.
func randResult(r *rand.Rand) (temporal.Interval, []core.VertexTuple, []core.EdgeTuple) {
	id := func() int64 { return []int64{0, 1, 2, -3, math.MaxInt64, math.MinInt64}[r.Intn(6)] }
	var vs []core.VertexTuple
	for i := r.Intn(6); i > 0; i-- {
		iv := temporal.Interval{Start: temporal.Time(i), End: temporal.Time(i + r.Intn(4))}
		vs = append(vs, core.VertexTuple{ID: core.VertexID(id()), Interval: iv, Props: randProps(r)})
	}
	var es []core.EdgeTuple
	for i := r.Intn(6); i > 0; i-- {
		iv := temporal.Interval{Start: temporal.Time(-i), End: temporal.Time(r.Intn(4) - i)}
		es = append(es, core.EdgeTuple{ID: core.EdgeID(id()), Src: core.VertexID(id()), Dst: core.VertexID(id()), Interval: iv, Props: randProps(r)})
	}
	return temporal.Interval{Start: temporal.Time(id()), End: temporal.Time(id())}, vs, es
}

func TestEncodeStatesMatchesReferenceQuick(t *testing.T) {
	// Intern two keys against their name order, so that a set holding
	// both iterates "zz" before "aa".
	props.KeyOf("zz-encode-order")
	props.KeyOf("aa-encode-order")
	ordered := props.New("zz-encode-order", 1, "aa-encode-order", 2, "mm", "x")
	checkEncode(t, "OG", temporal.MustInterval(0, 3), []core.VertexTuple{{ID: 7, Interval: temporal.MustInterval(0, 3), Props: ordered}}, nil)
	checkEncode(t, "VE", temporal.Empty, nil, nil)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		life, vs, es := randResult(r)
		return checkEncode(t, randString(r), life, vs, es)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// checkFold compares the response-boundary fold with VE's Coalesce on
// one set of states, each side on its own copy, by the bytes they
// encode to.
func checkFold(t *testing.T, ctx *dataflow.Context, vs []core.VertexTuple, es []core.EdgeTuple) {
	t.Helper()
	want := coalesceEncode(core.NewVE(ctx, vs, es))
	fv, fe, life := core.SortedCoalesced(slices.Clone(vs), slices.Clone(es))
	if got := encodeStates("VE", life, fv, fe); !bytes.Equal(got, want) {
		t.Errorf("SortedCoalesced differs from Coalesce:\n got %s\nwant %s", got, want)
	}
}

// FuzzEncodeStates drives the same comparison from fuzzed keys, values
// and numbers, and feeds the states — a value-equal run meeting or
// overlapping the first state of a vertex and an edge — through the
// fold; testdata/fuzz/FuzzEncodeStates holds the seed corpus.
func FuzzEncodeStates(f *testing.F) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	f.Cleanup(ctx.Close)
	f.Add("type", "person", "school", "MIT", int64(1), int64(0), int64(2), int64(1), int64(7), 2.5, uint8(0))
	f.Add("", "", "", "", int64(0), int64(0), int64(0), int64(0), int64(0), math.Copysign(0, -1), uint8(1))
	f.Add("<k>", "a&b\u2028", "\xff\"", "\\\x00\x1f", int64(-1), int64(3), int64(0), int64(-9), int64(9), 1e21, uint8(2))
	f.Fuzz(func(t *testing.T, k1, s1, k2, s2 string, id, src, dst, start, end int64, fl float64, shape uint8) {
		var b props.Builder
		b.Set(k1, props.StringVal(s1))
		b.Set(k2, []props.Value{props.StringVal(s2), props.Float(fl), props.Int(id), props.Bool(fl > 0), props.Nil()}[shape%5])
		p := b.Build()
		if shape&0x80 != 0 {
			p = props.Props{}
		}
		iv := temporal.Interval{Start: temporal.Time(start), End: temporal.Time(end)}
		vs := []core.VertexTuple{
			{ID: core.VertexID(id), Interval: iv, Props: p},
			{ID: core.VertexID(src), Interval: temporal.Interval{Start: iv.Start + 1, End: iv.End}},
			{ID: core.VertexID(id), Interval: temporal.Interval{Start: iv.End, End: iv.End + 3}, Props: p},
		}
		es := []core.EdgeTuple{
			{ID: core.EdgeID(id), Src: core.VertexID(src), Dst: core.VertexID(dst), Interval: iv, Props: p},
			{ID: core.EdgeID(id), Src: core.VertexID(src), Dst: core.VertexID(dst), Interval: temporal.Interval{Start: iv.End - 1, End: iv.End + 1}, Props: p},
		}
		switch {
		case shape&0x40 != 0:
			vs, es = vs[:1], nil // vertex-only
		case shape&0x20 != 0:
			vs, es = nil, nil // the empty graph
		}
		checkEncode(t, s1, iv, vs, es)
		checkFold(t, ctx, vs, es)
	})
}

// TestEncodeGraphAllocations: the encoder allocates the two state
// slices the graph hands it and the exactly-sized body — nothing per
// state, per property or per byte of growth, and it runs no dataflow
// job, also when it folds an uncoalesced result (a wZoom whose windows
// repeat each state). (Up to 4 leaves room for a sync.Pool refill after
// a collection.)
func TestEncodeGraphAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the encoder scratch at random")
	}
	ctx := dataflow.NewContext(dataflow.WithParallelism(1))
	defer ctx.Close()
	build := func(n int) core.TGraph {
		var vs []core.VertexTuple
		var es []core.EdgeTuple
		for i := 0; i < n; i++ {
			p := props.New("type", "person", "name", "v<"+string(rune('a'+i%26))+">", "age", i, "score", float64(i)/3)
			vs = append(vs, core.VertexTuple{ID: core.VertexID(n - i), Interval: temporal.MustInterval(0, 5), Props: p})
			es = append(es, core.EdgeTuple{ID: core.EdgeID(n - i), Src: core.VertexID(i + 1), Dst: 1, Interval: temporal.MustInterval(1, 4), Props: p})
		}
		return core.NewVE(ctx, vs, es).Coalesce()
	}
	window, err := temporal.EveryN(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 1000} {
		coalesced := build(n)
		windowed, err := coalesced.WZoom(core.WZoomSpec{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if windowed.IsCoalesced() {
			t.Fatal("the wZoom result is flagged coalesced; the fold goes untested")
		}
		for _, g := range []core.TGraph{coalesced, windowed} {
			encodeGraph(g) // grow the pooled buffer
			ctx.ResetMetrics()
			if allocs := testing.AllocsPerRun(20, func() { encodeGraph(g) }); allocs > 4 {
				t.Errorf("encodeGraph over %d coalesced=%v states: %v allocs, want at most 4", 2*n, g.IsCoalesced(), allocs)
			}
			if jobs := ctx.Metrics().Jobs; jobs != 0 {
				t.Errorf("encodeGraph over %d coalesced=%v states ran %d dataflow jobs, want 0", 2*n, g.IsCoalesced(), jobs)
			}
		}
	}
}

// randGraphStates draws the flat states of a random graph for the
// encoder properties: every entity's states are runs over a dozen time
// points with values from a small pool, so value-equal runs meet often;
// some states repeat an interval, with the same value or another, and
// some reach into the next state (two values at one time point, which a
// valid TGraph does not hold but an append can write, and whose input
// order the sort must keep); some are empty; an edge id keeps its
// endpoints.
func randGraphStates(r *rand.Rand) ([]core.VertexTuple, []core.EdgeTuple) {
	pool := []props.Props{
		{},
		props.New("type", "person"),
		props.New("type", "person", "school", "MIT"),
		props.New("type", "person", "school", "CMU"),
	}
	runs := func(emit func(temporal.Interval, props.Props)) {
		t := temporal.Time(r.Intn(4))
		for end := t + temporal.Time(r.Intn(10)); t < end; {
			iv := temporal.Interval{Start: t, End: t + 1 + temporal.Time(r.Intn(3))}
			p := pool[r.Intn(len(pool))]
			emit(iv, p)
			switch r.Intn(8) {
			case 0:
				emit(iv, p) // a duplicate: folds into the state
			case 1:
				emit(iv, pool[r.Intn(len(pool))]) // a tie on the interval
			case 2:
				emit(temporal.Interval{Start: iv.End, End: iv.End}, p) // empty
			case 3:
				emit(temporal.Interval{Start: iv.Start + 1, End: iv.End + 2}, pool[r.Intn(len(pool))]) // an overlap into the next state
			}
			t = iv.End
		}
	}
	var vs []core.VertexTuple
	for id, n := core.VertexID(1), core.VertexID(1+r.Intn(5)); id <= n; id++ {
		runs(func(iv temporal.Interval, p props.Props) {
			vs = append(vs, core.VertexTuple{ID: id, Interval: iv, Props: p})
		})
	}
	var es []core.EdgeTuple
	for id, n := core.EdgeID(1), core.EdgeID(r.Intn(5)); id <= n; id++ {
		src, dst := core.VertexID(1+r.Intn(5)), core.VertexID(1+r.Intn(5))
		runs(func(iv temporal.Interval, p props.Props) {
			es = append(es, core.EdgeTuple{ID: id, Src: src, Dst: dst, Interval: iv, Props: p})
		})
	}
	r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return vs, es
}

// TestEncodeGraphMatchesCoalesceQuick: encodeGraph's sort-and-fold
// writes the bytes the Coalesce path wrote, on random graphs in every
// representation, on their wZoom and aZoom results (uncoalesced) and on
// their coalesced forms (OGC is always coalesced).
func TestEncodeGraphMatchesCoalesceQuick(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	window, err := temporal.EveryN(3)
	if err != nil {
		t.Fatal(err)
	}
	az := core.GroupByProperty("school", "school", props.Count("n"))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs, es := randGraphStates(r)
		ve := core.NewVE(ctx, vs, es)
		for _, rep := range []core.Representation{core.RepVE, core.RepOG, core.RepRG, core.RepOGC} {
			g, err := core.Convert(ve, rep)
			if err != nil {
				t.Fatal(err)
			}
			outs := []core.TGraph{g, g.Coalesce()}
			wz, err := g.WZoom(core.WZoomSpec{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, wz)
			if rep != core.RepOGC {
				azOut, err := g.AZoom(az)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, azOut)
			}
			for i, out := range outs {
				want := coalesceEncode(out)
				if got := encodeGraph(out); !bytes.Equal(got, want) {
					t.Errorf("seed %d, %v result %d (%v, coalesced=%v):\n got %s\nwant %s", seed, rep, i, out.Rep(), out.IsCoalesced(), got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// printSteps is the test-only printer: parsed steps back to a pipeline
// request, each step in its normal form.
func printSteps(graph string, steps chain) PipelineRequest {
	req := PipelineRequest{Graph: graph}
	for _, st := range steps {
		req.Steps = append(req.Steps, st.norm)
	}
	return req
}

// FuzzSpecRequest drives a query endpoint with an arbitrary body;
// testdata/fuzz/FuzzSpecRequest holds the seed corpus. The handler
// never panics; the spec index and a fresh parse agree on graph,
// canonical chain, range tag and error-ness; and printing the parsed
// steps and parsing them again yields the same canonical chain.
func FuzzSpecRequest(f *testing.F) {
	s, _ := newTestServer(f, Config{})
	handler := s.Handler()
	eps := []*endpoint{{name: "azoom"}, {name: "wzoom"}, {name: "pipeline"}}
	panics := obs.Default().Counter("serve.panics_recovered")
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		ep := eps[int(which)%len(eps)]
		before := panics.Value()
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest("POST", "/v1/"+ep.name, bytes.NewReader(body)))
		if panics.Value() != before {
			t.Fatalf("handler panicked: %s", w.Body)
		}
		if len(body) > maxQueryBody {
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body answered %d, want 413", len(body), w.Code)
			}
			return
		}

		graph, steps, perr := parseBody(ep.name, body)
		keyed := append([]byte(ep.name+"\x00"), body...)
		for pass := 0; pass < 2; pass++ { // the second pass reads the index
			q := query{ep: ep, body: body}
			code, err := s.resolve(&q, keyed)
			switch {
			case perr != nil:
				if err == nil || code != http.StatusBadRequest {
					t.Fatalf("pass %d: parse fails (%v) but resolve answered %d %v", pass, perr, code, err)
				}
			case graph != "fig1":
				if code != http.StatusNotFound {
					t.Fatalf("pass %d: unknown graph %q answered %d %v", pass, graph, code, err)
				}
			default:
				want := specEntry{h: s.graphs["fig1"], canon: steps.canonical(), tag: steps.rangeTag(), dep: steps.depends()}
				if err != nil || q.spec != want {
					t.Fatalf("pass %d: resolve = %+v %v, want %+v", pass, q.spec, err, want)
				}
				if pass == 1 && q.steps != nil {
					t.Fatal("a parsed spec was not indexed")
				}
			}
		}
		if perr != nil {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("unparseable body answered %d, want 400", w.Code)
			}
			return
		}

		printed, err := json.Marshal(printSteps(graph, steps))
		if err != nil {
			t.Fatal(err)
		}
		g2, steps2, err := parseBody("pipeline", printed)
		if err != nil {
			t.Fatalf("printed steps do not parse: %v\n%s", err, printed)
		}
		if g2 != graph || steps2.canonical() != steps.canonical() || steps2.rangeTag() != steps.rangeTag() {
			t.Fatalf("print → parse changed the chain:\n%s\n%s", steps.canonical(), steps2.canonical())
		}
	})
}

// TestEncodeViewMatchesConvertQuick: a view's result encoded by
// encodeView is byte-identical to building a VE from it and coalescing
// that, for random wZoom and aZoom views — also over states that give
// an entity two values at once.
func TestEncodeViewMatchesConvertQuick(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	window, err := temporal.EveryN(3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs, es := randGraphStates(r)
		g := core.NewVE(ctx, vs, es)
		wz, err := incr.NewWZoomView(g, core.WZoomSpec{Window: window, VResolve: props.LastWins}, incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		az, err := incr.NewAZoomView(g, core.GroupByProperty("school", "school", props.Count("n")), incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []incr.View{wz, az} {
			rv, re := v.Result()
			got := encodeView(v)
			if want := coalesceEncode(core.NewVE(ctx, rv, re)); !bytes.Equal(got, want) {
				t.Errorf("seed %d, view %T:\n got %s\nwant %s", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
