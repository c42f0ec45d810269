// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark sweeps the same parameters as the corresponding
// experiment in internal/bench (which cmd/tgraph-bench runs with
// table-formatted output); these testing.B wrappers integrate with
// `go test -bench`. Graph construction happens outside the timed
// region; the timed region is the zoom operator itself.
package tgraph_test

import (
	"fmt"
	"testing"

	tgraph "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/temporal"
)

// benchCfg keeps `go test -bench=.` runnable in minutes.
var benchCfg = bench.Config{Scale: 0.15, Parallelism: 4, Seed: 42}

func buildRep(b *testing.B, d datagen.Dataset, rep core.Representation) core.TGraph {
	b.Helper()
	ctx := tgraph.NewContext(tgraph.WithParallelism(4))
	ve := core.NewVE(ctx, d.Vertices, d.Edges)
	g, err := core.Convert(ve.Coalesce(), rep)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

var azoomRepsUnderTest = []core.Representation{core.RepRG, core.RepVE, core.RepOG}
var wzoomRepsUnderTest = []core.Representation{core.RepRG, core.RepVE, core.RepOG, core.RepOGC}

// BenchmarkTable1DatasetStats regenerates the dataset-statistics table.
func BenchmarkTable1DatasetStats(b *testing.B) {
	for _, gen := range []struct {
		name string
		mk   func() datagen.Dataset
	}{
		{"WikiTalk", func() datagen.Dataset { return bench.WikiTalkDataset(benchCfg, 24) }},
		{"SNB", func() datagen.Dataset { return bench.SNBDataset(benchCfg, 36) }},
		{"NGrams", func() datagen.Dataset { return bench.NGramsDataset(benchCfg, 32) }},
	} {
		b.Run(gen.name, func(b *testing.B) {
			d := gen.mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := datagen.Describe(d)
				if st.Vertices == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkFig10AZoomDataSize: aZoom^T vs data size per representation.
func BenchmarkFig10AZoomDataSize(b *testing.B) {
	full := bench.SNBDataset(benchCfg, 36)
	for _, cut := range []temporal.Time{12, 24, 36} {
		d := datagen.Slice(full, cut)
		spec := core.GroupByProperty("firstName", "name-group")
		for _, rep := range azoomRepsUnderTest {
			b.Run(fmt.Sprintf("SNB/cut=%d/%s", cut, rep), func(b *testing.B) {
				g := buildRep(b, d, rep)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.AZoom(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig11AZoomSnapshots: aZoom^T vs number of snapshots at fixed
// size.
func BenchmarkFig11AZoomSnapshots(b *testing.B) {
	full := bench.WikiTalkDataset(benchCfg, 32)
	spec := core.GroupByProperty("name", "user-group")
	for _, factor := range []temporal.Time{8, 2, 1} {
		d := datagen.MergeSnapshots(full, factor)
		snaps := datagen.Describe(d).Snapshots
		for _, rep := range azoomRepsUnderTest {
			b.Run(fmt.Sprintf("WikiTalk/snapshots=%d/%s", snaps, rep), func(b *testing.B) {
				g := buildRep(b, d, rep)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.AZoom(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig12AZoomCardinality: aZoom^T vs group-by cardinality.
func BenchmarkFig12AZoomCardinality(b *testing.B) {
	full := bench.SNBDataset(benchCfg, 36)
	spec := core.GroupByProperty("grp", "group")
	for _, card := range []int{10, 1000, 100000} {
		d := datagen.AssignRandomGroups(full, card, 42)
		for _, rep := range azoomRepsUnderTest {
			b.Run(fmt.Sprintf("SNB/card=%d/%s", card, rep), func(b *testing.B) {
				g := buildRep(b, d, rep)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.AZoom(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig13AZoomChangeFreq: aZoom^T vs frequency of attribute
// change.
func BenchmarkFig13AZoomChangeFreq(b *testing.B) {
	full := bench.SNBDataset(benchCfg, 36)
	spec := core.GroupByProperty("firstName", "name-group")
	for _, period := range []temporal.Time{0, 6, 1} {
		d := full
		if period > 0 {
			d = datagen.ChurnVertexAttributes(full, period)
		}
		for _, rep := range azoomRepsUnderTest {
			b.Run(fmt.Sprintf("SNB/period=%d/%s", period, rep), func(b *testing.B) {
				g := buildRep(b, d, rep)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.AZoom(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func wzoomSpec(window temporal.Time, q temporal.Quantifier) core.WZoomSpec {
	return core.WZoomSpec{Window: temporal.MustEveryN(window), VQuant: q, EQuant: q}
}

// BenchmarkFig14WZoomDataSize: wZoom^T vs data size (exists/exists).
func BenchmarkFig14WZoomDataSize(b *testing.B) {
	full := bench.WikiTalkDataset(benchCfg, 24)
	for _, cut := range []temporal.Time{12, 24} {
		d := datagen.Slice(full, cut)
		for _, rep := range wzoomRepsUnderTest {
			b.Run(fmt.Sprintf("WikiTalk/cut=%d/%s", cut, rep), func(b *testing.B) {
				g := buildRep(b, d, rep)
				spec := wzoomSpec(3, temporal.Exists())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.WZoom(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig15WZoomWindowSize: wZoom^T vs window size (all/all).
func BenchmarkFig15WZoomWindowSize(b *testing.B) {
	d := bench.SNBDataset(benchCfg, 36)
	for _, w := range []temporal.Time{2, 6, 12} {
		for _, rep := range wzoomRepsUnderTest {
			b.Run(fmt.Sprintf("SNB/window=%d/%s", w, rep), func(b *testing.B) {
				g := buildRep(b, d, rep)
				spec := wzoomSpec(w, temporal.All())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.WZoom(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig16Chaining: aZoom -> (switch) -> wZoom strategies.
func BenchmarkFig16Chaining(b *testing.B) {
	d := bench.SNBDataset(benchCfg, 36)
	az := core.GroupByProperty("firstName", "name-group")
	wz := wzoomSpec(6, temporal.All())
	strategies := []struct {
		name       string
		rep1, rep2 core.Representation
	}{
		{"OG", core.RepOG, core.RepOG},
		{"VE", core.RepVE, core.RepVE},
		{"OG-VE", core.RepOG, core.RepVE},
		{"VE-OG", core.RepVE, core.RepOG},
	}
	for _, s := range strategies {
		b.Run("SNB/"+s.name, func(b *testing.B) {
			g := buildRep(b, d, s.rep1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mid, err := g.AZoom(az)
				if err != nil {
					b.Fatal(err)
				}
				if s.rep2 != s.rep1 {
					if mid, err = core.Convert(mid, s.rep2); err != nil {
						b.Fatal(err)
					}
				}
				res, err := mid.WZoom(wz)
				if err != nil {
					b.Fatal(err)
				}
				res.Coalesce()
			}
		})
	}
}

// BenchmarkFig17ZoomOrder: aZoom-then-wZoom vs wZoom-then-aZoom.
func BenchmarkFig17ZoomOrder(b *testing.B) {
	full := bench.NGramsDataset(benchCfg, 32)
	az := core.GroupByProperty("grp", "group")
	wz := wzoomSpec(8, temporal.Exists())
	for _, card := range []int{10, 100000} {
		d := datagen.AssignRandomGroups(full, card, 42)
		b.Run(fmt.Sprintf("NGrams/card=%d/az-wz", card), func(b *testing.B) {
			g := buildRep(b, d, core.RepOG)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mid, err := g.AZoom(az)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mid.WZoom(wz); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("NGrams/card=%d/wz-az", card), func(b *testing.B) {
			g := buildRep(b, d, core.RepOG)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mid, err := g.WZoom(wz)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mid.AZoom(az); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadSortOrder: the Section 4 loading ablation — time-range
// loads against structurally vs temporally sorted files.
func BenchmarkLoadSortOrder(b *testing.B) {
	d := bench.WikiTalkDataset(benchCfg, 24)
	ctx := tgraph.NewContext()
	g := core.NewVE(ctx, d.Vertices, d.Edges)
	rng := temporal.MustInterval(0, 6)
	for _, order := range []storage.SortOrder{storage.SortStructural, storage.SortTemporal} {
		dir := b.TempDir()
		if err := storage.SaveGraph(dir, g, storage.SaveOptions{FlatOrder: order, ChunkRows: 512}); err != nil {
			b.Fatal(err)
		}
		b.Run(order.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := storage.Load(ctx, dir, storage.LoadOptions{Rep: core.RepVE, Range: rng}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLazyCoalescing: lazy vs eager coalescing in an operator
// chain (Section 4 ablation).
func BenchmarkLazyCoalescing(b *testing.B) {
	d := datagen.ChurnVertexAttributes(bench.SNBDataset(benchCfg, 36), 6)
	az1 := core.GroupByProperty("firstName", "name-group", props.Count("n"))
	az2 := core.GroupByProperty("name", "letter-group", props.Sum("total", "n"))
	wz := wzoomSpec(6, temporal.Exists())
	// The chain is aZoom -> aZoom -> wZoom over a churned (fragmented)
	// input: aZoom tolerates uncoalesced input, so lazy mode coalesces
	// only where wZoom demands it, while eager mode coalesces after
	// every operator. On fragmented intermediates eager coalescing can
	// win (it shrinks what VE's joins must process); the harness
	// experiment `coalesce` measures both this and the compact regime
	// where eager is a redundant pass.
	for _, rep := range []core.Representation{core.RepVE, core.RepOG} {
		for _, mode := range []string{"lazy", "eager"} {
			b.Run(fmt.Sprintf("SNB/%s/%s", rep, mode), func(b *testing.B) {
				g := buildRep(b, d, rep)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mid, err := g.AZoom(az1)
					if err != nil {
						b.Fatal(err)
					}
					if mode == "eager" {
						mid = mid.Coalesce()
					}
					mid2, err := mid.AZoom(az2)
					if err != nil {
						b.Fatal(err)
					}
					if mode == "eager" {
						mid2 = mid2.Coalesce()
					}
					res, err := mid2.WZoom(wz)
					if err != nil {
						b.Fatal(err)
					}
					res.Coalesce()
				}
			})
		}
	}
}

// allocReps are the representations the allocation benchmarks cover:
// the two the paper recommends for zoom workloads.
var allocReps = []core.Representation{core.RepVE, core.RepOG}

// BenchmarkAZoomAlloc measures allocations per aZoom^T over VE and OG.
// The interned property runtime is judged by these numbers (see
// ISSUE 4 / DESIGN.md "Property runtime").
func BenchmarkAZoomAlloc(b *testing.B) {
	d := bench.WikiTalkDataset(benchCfg, 24)
	spec := core.GroupByProperty("name", "user-group", props.Count("members"))
	for _, rep := range allocReps {
		b.Run(fmt.Sprintf("WikiTalk/%s", rep), func(b *testing.B) {
			g := buildRep(b, d, rep)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.AZoom(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWZoomAlloc measures allocations per wZoom^T over VE and OG.
func BenchmarkWZoomAlloc(b *testing.B) {
	d := bench.WikiTalkDataset(benchCfg, 24)
	spec := core.WZoomSpec{
		Window: temporal.MustEveryN(3),
		VQuant: temporal.Exists(), EQuant: temporal.Exists(),
		VResolve: props.LastWins, EResolve: props.LastWins,
	}
	for _, rep := range allocReps {
		b.Run(fmt.Sprintf("WikiTalk/%s", rep), func(b *testing.B) {
			g := buildRep(b, d, rep)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.WZoom(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestInstrumentationOverhead guards the cost of the observability
// layer without a clock: tracing a fig14-sized OG wZoom must record one
// span per operator stage — a count that does not grow with the graph —
// and allocate no more than a fixed amount per span on top of the
// untraced run. Wall-clock ratios drift with the host and rise whenever
// the untraced kernel gets cheaper; span and allocation counts repeat
// exactly.
func TestInstrumentationOverhead(t *testing.T) {
	d := bench.WikiTalkDataset(benchCfg, 24)
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
