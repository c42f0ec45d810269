package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/temporal"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14: wZoom^T runtime vs. data size",
		Description: "Fixed window size, growing temporal slices, nodes=exists, edges=exists; " +
			"RG vs VE vs OG vs OGC. Expected: OGC best, RG worst; OG and VE within noise of each other " +
			"(the paper has OG ahead; VE here runs OG's per-entity kernel after one shuffle).",
		Run: runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Figure 15: wZoom^T runtime vs. window size",
		Description: "Fixed data size, varying tumbling-window size, nodes=all, edges=all. " +
			"Expected: OGC best, RG worst; OG and VE within noise of each other and flat — the paper's VE " +
			"slows for small windows (a tuple copy per window), but VE here groups by entity and runs OG's per-entity kernel.",
		Run: runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Figure 16: chained aZoom^T -> wZoom^T with representation switching",
		Description: "OG, VE, OG-VE and VE-OG pipelines over varying window sizes. " +
			"Expected: OG best overall; switching does not significantly help.",
		Run: runFig16,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Figure 17: operator order vs. group-by cardinality",
		Description: "aZoom-then-wZoom vs wZoom-then-aZoom for varying cardinality. " +
			"Expected: aZoom-first grows with cardinality; wZoom-first flat; wZoom-first wins on NGrams.",
		Run: runFig17,
	})
	register(Experiment{
		ID:    "load",
		Title: "Section 4 ablation: load-time sort order and predicate pushdown",
		Description: "Time-range loads from structurally vs temporally sorted files. " +
			"Expected: structural order skips more chunks for snapshot slices (the paper's ~30% load speedup).",
		Run: runLoad,
	})
	register(Experiment{
		ID:    "coalesce",
		Title: "Section 4 ablation: lazy vs. eager coalescing in operator chains",
		Description: "aZoom -> aZoom -> wZoom with coalescing after every operator vs only when required. " +
			"Expected: lazy wins; aZoom tolerates uncoalesced input.",
		Run: runCoalesce,
	})
}

var wzoomReps = []core.Representation{core.RepRG, core.RepVE, core.RepOG, core.RepOGC}

func existsSpec(window temporal.Time) core.WZoomSpec {
	return core.WZoomSpec{
		Window: temporal.MustEveryN(window),
		VQuant: temporal.Exists(), EQuant: temporal.Exists(),
		VResolve: props.LastWins, EResolve: props.LastWins,
	}
}

func allSpec(window temporal.Time) core.WZoomSpec {
	return core.WZoomSpec{
		Window: temporal.MustEveryN(window),
		VQuant: temporal.All(), EQuant: temporal.All(),
		VResolve: props.LastWins, EResolve: props.LastWins,
	}
}

func runFig14(cfg Config) []Table {
	type sweep struct {
		dataset datagen.Dataset
		window  temporal.Time
		cuts    []temporal.Time
	}
	sweeps := []sweep{
		{WikiTalkDataset(cfg, 24), 3, []temporal.Time{6, 12, 18, 24}},
		{SNBDataset(cfg, 36), 3, []temporal.Time{9, 18, 27, 36}},
		{NGramsDataset(cfg, 32), 4, []temporal.Time{8, 16, 24, 32}},
	}
	var out []Table
	for _, sw := range sweeps {
		t := Table{
			Title:  fmt.Sprintf("wZoom^T runtime (ms) vs data size: %s (window=%d, exists/exists)", sw.dataset.Name, sw.window),
			Header: []string{"cut", "RG", "VE", "OG", "OGC"},
		}
		for _, cut := range sw.cuts {
			d := datagen.Slice(sw.dataset, cut)
			row := []string{fmt.Sprint(cut)}
			for _, rep := range wzoomReps {
				ctx := cfg.context()
				g := buildRep(ctx, d, rep)
				spec := existsSpec(sw.window)
				row = append(row, ms(timeOp(func() {
					if _, err := g.WZoom(spec); err != nil {
						panic(err)
					}
				})))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}

func runFig15(cfg Config) []Table {
	base := map[string]datagen.Dataset{
		"WikiTalk": WikiTalkDataset(cfg, 24),
		"SNB":      SNBDataset(cfg, 36),
		"NGrams":   NGramsDataset(cfg, 32),
	}
	var out []Table
	for _, name := range []string{"WikiTalk", "SNB", "NGrams"} {
		t := Table{
			Title:  "wZoom^T runtime (ms) vs window size: " + name + " (all/all)",
			Header: []string{"window", "RG", "VE", "OG", "OGC"},
		}
		for _, w := range []temporal.Time{2, 3, 6, 12} {
			row := []string{fmt.Sprint(w)}
			for _, rep := range wzoomReps {
				ctx := cfg.context()
				g := buildRep(ctx, base[name], rep)
				spec := allSpec(w)
				row = append(row, ms(timeOp(func() {
					if _, err := g.WZoom(spec); err != nil {
						panic(err)
					}
				})))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}

// chainStrategy times aZoom on rep1, an optional switch to rep2, and
// wZoom there, end to end (conversion included, as in the paper).
func chainStrategy(cfg Config, d datagen.Dataset, rep1, rep2 core.Representation, az core.AZoomSpec, wz core.WZoomSpec) time.Duration {
	ctx := cfg.context()
	g := buildRep(ctx, d, rep1)
	return timeOp(func() {
		mid, err := g.AZoom(az)
		if err != nil {
			panic(err)
		}
		if rep2 != rep1 {
			mid, err = core.Convert(mid, rep2)
			if err != nil {
				panic(err)
			}
		}
		res, err := mid.WZoom(wz)
		if err != nil {
			panic(err)
		}
		res.Coalesce()
	})
}

func runFig16(cfg Config) []Table {
	base := map[string]datagen.Dataset{
		"WikiTalk": WikiTalkDataset(cfg, 24),
		"SNB":      SNBDataset(cfg, 36),
		"NGrams":   NGramsDataset(cfg, 32),
	}
	specFor := func(name string) core.AZoomSpec { return azoomSpecFor(name) }
	var out []Table
	for _, name := range []string{"WikiTalk", "SNB", "NGrams"} {
		t := Table{
			Title:  "aZoom^T + wZoom^T chain runtime (ms): " + name + " (all/all)",
			Note:   "columns: representation strategy (X-Y = aZoom on X, wZoom on Y)",
			Header: []string{"window", "OG", "VE", "OG-VE", "VE-OG"},
		}
		for _, w := range []temporal.Time{2, 3, 6, 12} {
			wz := allSpec(w)
			az := specFor(name)
			row := []string{fmt.Sprint(w)}
			row = append(row, ms(chainStrategy(cfg, base[name], core.RepOG, core.RepOG, az, wz)))
			row = append(row, ms(chainStrategy(cfg, base[name], core.RepVE, core.RepVE, az, wz)))
			row = append(row, ms(chainStrategy(cfg, base[name], core.RepOG, core.RepVE, az, wz)))
			row = append(row, ms(chainStrategy(cfg, base[name], core.RepVE, core.RepOG, az, wz)))
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}

func runFig17(cfg Config) []Table {
	base := map[string]struct {
		d datagen.Dataset
		w temporal.Time
	}{
		"WikiTalk": {WikiTalkDataset(cfg, 24), 6},
		"SNB":      {SNBDataset(cfg, 36), 6},
		"NGrams":   {NGramsDataset(cfg, 32), 10},
	}
	azSpec := core.GroupByProperty("grp", "group")
	var out []Table
	for _, name := range []string{"WikiTalk", "SNB", "NGrams"} {
		t := Table{
			Title:  "zoom order runtime (ms) vs group-by cardinality: " + name,
			Note:   "az-wz = aZoom then wZoom; wz-az = wZoom then aZoom (exists/exists, OG)",
			Header: []string{"cardinality", "az-wz", "wz-az"},
		}
		for _, card := range []int{10, 1000, 100000} {
			d := datagen.AssignRandomGroups(base[name].d, card, cfg.Seed+int64(card))
			wz := existsSpec(base[name].w)
			ctx := cfg.context()
			g := buildRep(ctx, d, core.RepOG)
			azFirst := timeOp(func() {
				mid, err := g.AZoom(azSpec)
				if err != nil {
					panic(err)
				}
				res, err := mid.WZoom(wz)
				if err != nil {
					panic(err)
				}
				res.Coalesce()
			})
			wzFirst := timeOp(func() {
				mid, err := g.WZoom(wz)
				if err != nil {
					panic(err)
				}
				res, err := mid.AZoom(azSpec)
				if err != nil {
					panic(err)
				}
				res.Coalesce()
			})
			t.Rows = append(t.Rows, []string{fmt.Sprint(card), ms(azFirst), ms(wzFirst)})
		}
		out = append(out, t)
	}
	return out
}

func runLoad(cfg Config) []Table {
	d := WikiTalkDataset(cfg, 24)
	ctx := cfg.context()
	g := core.NewVE(ctx, d.Vertices, d.Edges)

	dirT, err := os.MkdirTemp("", "pgc-temporal-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dirT)
	dirS, err := os.MkdirTemp("", "pgc-structural-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dirS)
	if err := storage.SaveGraph(dirT, g, storage.SaveOptions{FlatOrder: storage.SortTemporal, ChunkRows: 512}); err != nil {
		panic(err)
	}
	if err := storage.SaveGraph(dirS, g, storage.SaveOptions{FlatOrder: storage.SortStructural, ChunkRows: 512}); err != nil {
		panic(err)
	}

	t := Table{
		Title:  "GraphLoader: time-range load by on-disk sort order (WikiTalk-like)",
		Note:   "range [0, 6) of 24 snapshots; pushdown via chunk zone maps",
		Header: []string{"sort order", "load ms", "chunks read", "chunks skipped", "rows read"},
	}
	rng := temporal.MustInterval(0, 6)
	for _, tc := range []struct {
		name string
		dir  string
	}{{"temporal (VE layout)", dirT}, {"structural (RG layout)", dirS}} {
		var stats storage.ScanStats
		dur := timeOnce(func() {
			_, s, err := storage.Load(ctx, tc.dir, storage.LoadOptions{Rep: core.RepVE, Range: rng})
			if err != nil {
				panic(err)
			}
			stats = s
		})
		t.Rows = append(t.Rows, []string{
			tc.name, ms(dur),
			fmt.Sprint(stats.ChunksRead), fmt.Sprint(stats.ChunksSkipped), fmt.Sprint(stats.RowsRead),
		})
	}
	return []Table{t}
}

func runCoalesce(cfg Config) []Table {
	// Two regimes:
	//
	// "compact" — growth-only SNB with a count aggregate: the aZoom
	// intermediate is already maximal (membership counts change at
	// every boundary), so eager coalescing between operators is a
	// redundant pass — the overhead the paper's lazy coalescing avoids.
	//
	// "fragmented" — attribute-churned SNB: after grouping, the churn
	// attribute disappears and adjacent fragments become
	// value-equivalent, so an intermediate coalesce shrinks the data
	// that later operators (VE's joins especially) must process. Here
	// eager coalescing can win — the flip side of the trade-off, which
	// matters more in-process than on Spark where every coalesce is a
	// full shuffle.
	az1 := core.GroupByProperty("firstName", "name-group", props.Count("n"))
	az2 := core.GroupByProperty("name", "letter-group", props.Sum("total", "n"))
	wz := existsSpec(6)

	run := func(g core.TGraph, eager bool) time.Duration {
		return timeOp(func() {
			mid, err := g.AZoom(az1)
			if err != nil {
				panic(err)
			}
			if eager {
				mid = mid.Coalesce()
			}
			mid2, err := mid.AZoom(az2)
			if err != nil {
				panic(err)
			}
			if eager {
				mid2 = mid2.Coalesce()
			}
			res, err := mid2.WZoom(wz)
			if err != nil {
				panic(err)
			}
			res.Coalesce()
		})
	}

	t := Table{
		Title:  "lazy vs eager coalescing: aZoom -> aZoom -> wZoom chain (SNB-like)",
		Note:   "compact: intermediate already maximal (eager is pure overhead); fragmented: intermediate shrinks under coalescing (eager can pay off)",
		Header: []string{"workload", "representation", "lazy ms", "eager ms"},
	}
	workloads := []struct {
		name string
		d    datagen.Dataset
	}{
		{"compact", SNBDataset(cfg, 36)},
		{"fragmented", datagen.ChurnVertexAttributes(SNBDataset(cfg, 36), 6)},
	}
	for _, w := range workloads {
		for _, rep := range []core.Representation{core.RepVE, core.RepOG} {
			ctx := cfg.context()
			g := buildRep(ctx, w.d, rep)
			lazy := run(g, false)
			eager := run(g, true)
			t.Rows = append(t.Rows, []string{w.name, rep.String(), ms(lazy), ms(eager)})
		}
	}
	return []Table{t}
}
