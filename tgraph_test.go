package tgraph_test

import (
	"testing"

	tgraph "repro"
	"repro/internal/temporal"
)

func exampleGraph(ctx *tgraph.Context) tgraph.Graph {
	vs := []tgraph.VertexTuple{
		{ID: 1, Interval: tgraph.MustInterval(1, 7), Props: tgraph.NewProps("type", "person", "school", "MIT")},
		{ID: 2, Interval: tgraph.MustInterval(2, 5), Props: tgraph.NewProps("type", "person")},
		{ID: 2, Interval: tgraph.MustInterval(5, 9), Props: tgraph.NewProps("type", "person", "school", "CMU")},
		{ID: 3, Interval: tgraph.MustInterval(1, 9), Props: tgraph.NewProps("type", "person", "school", "MIT")},
	}
	es := []tgraph.EdgeTuple{
		{ID: 1, Src: 1, Dst: 2, Interval: tgraph.MustInterval(2, 7), Props: tgraph.NewProps("type", "co-author")},
		{ID: 2, Src: 2, Dst: 3, Interval: tgraph.MustInterval(7, 9), Props: tgraph.NewProps("type", "co-author")},
	}
	return tgraph.FromStates(ctx, vs, es)
}

func TestFacadeEndToEnd(t *testing.T) {
	ctx := tgraph.NewContext(tgraph.WithParallelism(2))
	g := exampleGraph(ctx)
	if err := tgraph.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	result, err := tgraph.NewPipeline(g).
		AZoom(tgraph.GroupByProperty("school", "school", tgraph.Count("students"))).
		WZoom(tgraph.WZoomSpec{
			Window: tgraph.EveryN(4),
			VQuant: tgraph.Exists(), EQuant: tgraph.Exists(),
			VResolve: tgraph.LastWins, EResolve: tgraph.LastWins,
		}).
		Result()
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if result.NumVertices() != 2 {
		t.Errorf("school nodes = %d, want MIT and CMU", result.NumVertices())
	}
	if err := tgraph.Validate(result); err != nil {
		t.Errorf("result invalid: %v", err)
	}
}

func TestPipelineSwitch(t *testing.T) {
	ctx := tgraph.NewContext()
	g := exampleGraph(ctx)
	p := tgraph.NewPipeline(g).
		AZoom(tgraph.GroupByProperty("school", "school")).
		Switch(tgraph.OG).
		WZoom(tgraph.WZoomSpec{Window: tgraph.EveryN(3)})
	out, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if out.Rep() != tgraph.OG {
		t.Errorf("final representation = %v, want OG", out.Rep())
	}
	steps := p.Steps()
	if len(steps) != 4 { // VE, aZoom, ->OG, wZoom (Result's coalesce is not a recorded step)
		t.Errorf("steps = %v", steps)
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	ctx := tgraph.NewContext()
	g := exampleGraph(ctx)
	// aZoom over OGC is unsupported: error must surface at Result and
	// short-circuit later steps.
	p := tgraph.NewPipeline(g).
		Switch(tgraph.OGC).
		AZoom(tgraph.GroupByProperty("school", "school")).
		WZoom(tgraph.WZoomSpec{Window: tgraph.EveryN(2)}).
		Coalesce()
	if _, err := p.Result(); err == nil {
		t.Fatal("want error from aZoom over OGC")
	}
	if _, err := p.ResultUncoalesced(); err == nil {
		t.Fatal("ResultUncoalesced must carry the error too")
	}
}

func TestPipelineLazyCoalescing(t *testing.T) {
	ctx := tgraph.NewContext()
	g := exampleGraph(ctx)
	mid, err := tgraph.NewPipeline(g).
		AZoom(tgraph.GroupByProperty("school", "school")).
		ResultUncoalesced()
	if err != nil {
		t.Fatal(err)
	}
	if mid.IsCoalesced() {
		t.Error("aZoom output should stay uncoalesced (lazy)")
	}
	fin, err := tgraph.NewPipeline(g).
		AZoom(tgraph.GroupByProperty("school", "school")).
		Result()
	if err != nil {
		t.Fatal(err)
	}
	if !fin.IsCoalesced() {
		t.Error("Result must coalesce")
	}
}

func TestSaveLoadFacade(t *testing.T) {
	ctx := tgraph.NewContext()
	g := exampleGraph(ctx)
	dir := t.TempDir()
	if err := tgraph.Save(dir, g, tgraph.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded, stats, err := tgraph.Load(ctx, dir, tgraph.LoadOptions{Rep: tgraph.OG})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsRead == 0 {
		t.Error("no rows read")
	}
	if loaded.NumVertices() != 3 || loaded.NumEdges() != 2 {
		t.Errorf("loaded %d vertices, %d edges", loaded.NumVertices(), loaded.NumEdges())
	}
	rng := tgraph.MustInterval(1, 3)
	slice, _, err := tgraph.Load(ctx, dir, tgraph.LoadOptions{Rep: tgraph.VE, Range: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !rng.Covers(slice.Lifetime()) {
		t.Errorf("slice lifetime %v escapes %v", slice.Lifetime(), rng)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := tgraph.ParseWindowSpec("3 months"); err != nil {
		t.Error(err)
	}
	q, err := tgraph.ParseQuantifier("most")
	if err != nil || q != tgraph.Most() {
		t.Errorf("ParseQuantifier: %v, %v", q, err)
	}
	if _, err := tgraph.AtLeast(2); err == nil {
		t.Error("AtLeast(2): want error")
	}
	if _, err := tgraph.NewInterval(5, 1); err == nil {
		t.Error("NewInterval(5,1): want error")
	}
}

func TestConvertFacade(t *testing.T) {
	ctx := tgraph.NewContext()
	g := exampleGraph(ctx)
	for _, rep := range []tgraph.Representation{tgraph.VE, tgraph.RG, tgraph.OG, tgraph.OGC} {
		out, err := tgraph.Convert(g, rep)
		if err != nil {
			t.Fatalf("Convert(%v): %v", rep, err)
		}
		if out.Rep() != rep {
			t.Errorf("got %v", out.Rep())
		}
	}
	_ = temporal.Empty // keep the internal import honest for test-only helpers
}

func TestFacadeCSVRoundTrip(t *testing.T) {
	ctx := tgraph.NewContext()
	g := exampleGraph(ctx)
	dir := t.TempDir()
	if err := tgraph.ExportCSV(dir, g); err != nil {
		t.Fatal(err)
	}
	back, err := tgraph.ImportCSV(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Errorf("CSV round trip: %d/%d", back.NumVertices(), back.NumEdges())
	}
	if err := tgraph.Validate(back); err != nil {
		t.Errorf("imported graph invalid: %v", err)
	}
}
