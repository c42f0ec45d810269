// Pipeline: chained zooms, representation switching and persistence.
//
// Reproduces the paper's Section 5.3 workflow end to end:
//
//  1. generate an NGrams-like co-occurrence graph and persist it as a
//     PGC graph directory (columnar, zone-mapped);
//  2. load a temporal slice of it in the OG representation with
//     predicate pushdown;
//  3. run aZoom^T on OG, switch to VE, run wZoom^T there (the paper's
//     OG-VE strategy), with lazy coalescing throughout.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"os"

	tgraph "repro"
	"repro/internal/datagen"
)

func main() {
	ctx := tgraph.NewContext()

	// 1. Generate and persist.
	d := datagen.NGrams(datagen.NGramsConfig{
		Words:            600,
		Snapshots:        32,
		PairsPerSnapshot: 500,
		Persistence:      0.18,
		Seed:             3,
	})
	dir, err := os.MkdirTemp("", "tgraph-pipeline-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	full := tgraph.FromStates(ctx, d.Vertices, d.Edges)
	if err := tgraph.Save(dir, full, tgraph.SaveOptions{ChunkRows: 512}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted %d word vertices, %d co-occurrence edges to %s\n",
		full.NumVertices(), full.NumEdges(), dir)

	// 2. Load the last half of the history as OG, with pushdown.
	rng := tgraph.MustInterval(16, 32)
	g, stats, err := tgraph.Load(ctx, dir, tgraph.LoadOptions{Rep: tgraph.OG, Range: rng})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded slice %v as %s: %d vertices, %d edges (chunks read %d, skipped %d)\n",
		rng, g.Rep(), g.NumVertices(), g.NumEdges(), stats.ChunksRead, stats.ChunksSkipped)

	// 3. Chain: aZoom on OG -> switch to VE -> wZoom, lazily coalesced.
	p := tgraph.NewPipeline(g).
		AZoom(tgraph.GroupByProperty("word", "word-group", tgraph.Count("n"))).
		Switch(tgraph.VE).
		WZoom(tgraph.WZoomSpec{
			Window:   tgraph.EveryN(4),
			VQuant:   tgraph.Exists(),
			EQuant:   tgraph.Exists(),
			VResolve: tgraph.LastWins,
			EResolve: tgraph.LastWins,
		})
	result, err := p.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline %v: %d group vertices, %d edges\n",
		p.Steps(), result.NumVertices(), result.NumEdges())
}
