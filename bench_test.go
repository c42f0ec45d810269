package tgraph_test

import (
	"testing"

	tgraph "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/temporal"
)

// TestInstrumentationOverhead guards the cost of the observability
// layer without a clock: tracing a fig14-sized OG wZoom must record one
// span per operator stage — a count that does not grow with the graph —
// and allocate no more than a fixed amount per span on top of the
// untraced run. Wall-clock ratios drift with the host and rise whenever
// the untraced kernel gets cheaper; span and allocation counts repeat
// exactly.
func TestInstrumentationOverhead(t *testing.T) {
	d := bench.WikiTalkDataset(bench.Config{Scale: 0.15, Parallelism: 4, Seed: 42}, 24)
	ctx := tgraph.NewContext(tgraph.WithParallelism(1))
	ve := core.NewVE(ctx, d.Vertices, d.Edges)
	g, err := core.Convert(ve.Coalesce(), core.RepOG)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.WZoomSpec{
		Window: temporal.MustEveryN(3),
		VQuant: temporal.All(), EQuant: temporal.Exists(), // stricter vertices: the dangling-edge stage runs too
		VResolve: props.LastWins, EResolve: props.LastWins,
	}
	run := func() {
		obs.DefaultTracer().Reset() // keep the span forest from growing across runs
		if _, err := g.WZoom(spec); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		obs.SetTracing(false)
		obs.ResetAll()
	}()

	obs.SetTracing(true)
	run()
	var spans func([]obs.SpanSnapshot) int
	spans = func(ss []obs.SpanSnapshot) int {
		n := len(ss)
		for _, s := range ss {
			n += spans(s.Children)
		}
		return n
	}
	n := spans(obs.Spans())
	if n < 4 || n > 8 {
		t.Errorf("a traced OG wZoom recorded %d spans, want one per stage (operator, windows, vertices, edges, dangling edges)", n)
	}
	traced := testing.AllocsPerRun(5, run)
	obs.SetTracing(false)
	untraced := testing.AllocsPerRun(5, run)
	t.Logf("%d spans; %v allocs traced, %v untraced", n, traced, untraced)
	// A span is its record, its slot in the parent's child list and the
	// name of its duration histogram.
	if extra := traced - untraced; extra > float64(8*n) {
		t.Errorf("tracing added %v allocations over %d spans, want at most 8 per span", extra, n)
	}
	if traced > untraced*1.05 {
		t.Errorf("tracing added %.2f%% allocations (untraced %v, traced %v), want under 5%%", (traced/untraced-1)*100, untraced, traced)
	}
}
