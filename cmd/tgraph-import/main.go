// Command tgraph-import converts a CSV graph directory (vertices.csv +
// optional edges.csv, VE schema) into a PGC columnar graph directory
// that the GraphLoader can read with predicate pushdown.
//
// With -append it instead streams the CSV rows into the write-ahead
// log of an EXISTING graph directory — row by row, one fsync per
// -batch records, nothing held in memory — so large deltas can be
// ingested without rebuilding the graph; the next load replays them
// and tgraph-cli -compact folds them into a new columnar epoch. The
// WAL is single-writer: never -append into a directory a live
// tgraph-serve is serving (use its POST /v1/append instead).
//
// Usage:
//
//	tgraph-import -in ./mydata -out /tmp/mygraph [-order structural] [-validate]
//	tgraph-import -in ./delta -out /tmp/mygraph -append [-batch 512]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	tgraph "repro"
	"repro/internal/storage"
)

func main() {
	var (
		in       = flag.String("in", "", "input directory with vertices.csv (+ edges.csv)")
		out      = flag.String("out", "", "output PGC graph directory")
		order    = flag.String("order", "temporal", "flat-file sort order: temporal | structural")
		validate = flag.Bool("validate", true, "check TGraph validity before writing")
		timeout  = flag.Duration("timeout", 0, "deadline for all dataflow work, e.g. 30s (0 = none)")
		doAppend = flag.Bool("append", false, "stream the CSV into the write-ahead log of the EXISTING graph directory -out instead of building a new one")
		batch    = flag.Int("batch", 512, "append mode: records per durable WAL append")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "tgraph-import: -in and -out are required")
		os.Exit(2)
	}
	if *doAppend {
		start := time.Now()
		st, err := tgraph.AppendCSV(*out, *in, *batch, tgraph.WALOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tgraph-import: append: %v (%d records already durable)\n", err, st.Records)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		rate := float64(st.Records) / elapsed.Seconds()
		if st.Records == 0 {
			fmt.Printf("appended 0 records to the WAL of %s (input was empty)\n", *out)
			return
		}
		fmt.Printf("appended %d records to the WAL of %s in %v (%.0f records/s, acked seq %d..%d)\n",
			st.Records, *out, elapsed.Round(time.Millisecond), rate, st.FirstSeq, st.LastSeq)
		fmt.Printf("compact with: tgraph-cli -dir %s -compact\n", *out)
		return
	}
	var sortOrder storage.SortOrder
	switch *order {
	case "temporal":
		sortOrder = storage.SortTemporal
	case "structural":
		sortOrder = storage.SortStructural
	default:
		fmt.Fprintf(os.Stderr, "tgraph-import: unknown sort order %q\n", *order)
		os.Exit(2)
	}

	var copts []tgraph.Option
	if *timeout > 0 {
		copts = append(copts, tgraph.WithTimeout(*timeout))
	}
	ctx := tgraph.NewContext(copts...)
	defer ctx.Close()
	g, err := tgraph.ImportCSV(ctx, *in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tgraph-import: %v\n", err)
		os.Exit(1)
	}
	if *validate {
		if err := tgraph.Validate(g); err != nil {
			fmt.Fprintf(os.Stderr, "tgraph-import: input is not a valid TGraph:\n%v\n", err)
			os.Exit(1)
		}
	}
	if err := tgraph.Save(*out, g, tgraph.SaveOptions{FlatOrder: sortOrder}); err != nil {
		fmt.Fprintf(os.Stderr, "tgraph-import: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("imported %d vertices, %d edges (lifetime %v) into %s\n",
		g.NumVertices(), g.NumEdges(), g.Lifetime(), *out)
}
