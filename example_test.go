package tgraph_test

import (
	"fmt"
	"sort"

	tgraph "repro"
	"repro/internal/core"
)

// figure1Graph builds the paper's running example TGraph (Figure 1).
func figure1Graph(ctx *tgraph.Context) tgraph.Graph {
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

// schoolSpec is the Figure 2 zoom with a deterministic Skolem function
// (MIT -> 100, CMU -> 200) so that example output is stable.
func schoolSpec() tgraph.AZoomSpec {
	ids := map[string]tgraph.VertexID{"MIT": 100, "CMU": 200}
	return tgraph.AZoomSpec{
		Skolem: func(_ tgraph.VertexID, p tgraph.Props) (tgraph.VertexID, bool) {
			id, ok := ids[p.GetString("school")]
			return id, ok
		},
		NewProps: func(_ tgraph.VertexID, p tgraph.Props) tgraph.Props {
			return tgraph.NewProps("type", "school", "name", p.GetString("school"))
		},
		Agg: core.GroupByProperty("school", "school", tgraph.Count("students")).Agg,
	}
}

func printVertices(g tgraph.Graph) {
	vs := g.VertexStates()
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].ID != vs[j].ID {
			return vs[i].ID < vs[j].ID
		}
		return vs[i].Interval.Before(vs[j].Interval)
	})
	for _, v := range vs {
		fmt.Printf("%d %v {%v}\n", v.ID, v.Interval, v.Props)
	}
}

// printEdges prints edge states in (id, start) order: EdgeStates
// promises no order of its own.
func printEdges(g tgraph.Graph) {
	es := g.EdgeStates()
	sort.Slice(es, func(i, j int) bool {
		if es[i].ID != es[j].ID {
			return es[i].ID < es[j].ID
		}
		return es[i].Interval.Before(es[j].Interval)
	})
	for _, e := range es {
		fmt.Printf("%d -> %d %v\n", e.Src, e.Dst, e.Interval)
	}
}

// The paper's Figure 2: attribute-based zoom from people to schools.
func Example_attributeZoom() {
	ctx := tgraph.NewContext(tgraph.WithParallelism(2))
	g := figure1Graph(ctx)
	schools, err := tgraph.NewPipeline(g).AZoom(schoolSpec()).Result()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printVertices(schools)
	// Output:
	// 100 [1, 7) {name=MIT, students=2, type=school}
	// 100 [7, 9) {name=MIT, students=1, type=school}
	// 200 [5, 9) {name=CMU, students=1, type=school}
}

// The paper's Figure 3: window-based zoom to quarters with universal
// quantification.
func Example_windowZoom() {
	ctx := tgraph.NewContext(tgraph.WithParallelism(2))
	g := figure1Graph(ctx)
	quarters, err := tgraph.NewPipeline(g).
		WZoom(tgraph.WZoomSpec{
			Window:   tgraph.EveryN(3),
			VQuant:   tgraph.All(),
			EQuant:   tgraph.All(),
			VResolve: tgraph.LastWins,
			EResolve: tgraph.LastWins,
		}).
		Result()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printVertices(quarters)
	printEdges(quarters)
	// Output:
	// 1 [1, 7) {school=MIT, type=person}
	// 2 [4, 9) {school=CMU, type=person}
	// 3 [1, 9) {school=MIT, type=person}
	// 1 -> 2 [4, 7)
	// 2 -> 3 [7, 9)
}

// Quantifiers control how much evidence a window needs before an
// entity is kept.
func ExampleParseQuantifier() {
	for _, s := range []string{"all", "most", "at least 0.25", "exists"} {
		q, err := tgraph.ParseQuantifier(s)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%s: threshold %v\n", q, q.Threshold())
	}
	// Output:
	// all: threshold 1
	// most: threshold 0.5
	// at least 0.25: threshold 0.25
	// exists: threshold 0
}
