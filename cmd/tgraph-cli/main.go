// Command tgraph-cli loads a persisted TGraph, optionally applies a
// zoom pipeline, and prints the result.
//
// Usage:
//
//	tgraph-cli -dir /tmp/wiki -rep og -info
//	tgraph-cli -dir /tmp/wiki -rep ve -stats
//	tgraph-cli -dir /tmp/wiki -rep ve -azoom name -count members
//	tgraph-cli -dir /tmp/snb -rep og -wzoom "6 months" -vquant all -equant all
//	tgraph-cli -dir /tmp/snb -rep ve -azoom firstName -wzoom "3 months" -dump 10
//	tgraph-cli -dir /tmp/snb -rep og -wzoom "6 months" -trace
//	tgraph-cli -dir /tmp/snb -rep og -wzoom "6 months" -timeout 30s
//	tgraph-cli -dir /tmp/damaged -rep ve -permissive -info
//	tgraph-cli -dir /tmp/damaged -verify
//	tgraph-cli -dir /tmp/damaged -repair
//	tgraph-cli -dir /tmp/wiki -compact
//
// -verify also inspects the directory's write-ahead log segments and
// reports unexpected litter; -repair heals the log (truncating torn
// tails), retires fully-subsumed segments, and quarantines litter into
// quarantine/ instead of deleting it. -compact folds the WAL tail into
// a fresh committed columnar epoch and retires its segments — run it
// only while no server is serving the directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	tgraph "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tgraph-cli: "+format+"\n", args...)
	os.Exit(1)
}

// loadRange turns -from and -to into the load range: both 0 loads
// everything (the empty interval), anything else needs -to > -from.
func loadRange(from, to int64) (tgraph.Interval, error) {
	if from == 0 && to == 0 {
		return tgraph.Interval{}, nil
	}
	if to <= from {
		return tgraph.Interval{}, fmt.Errorf("-from %d -to %d is not a range: give -to > -from, or neither to load everything", from, to)
	}
	return tgraph.MustInterval(tgraph.Time(from), tgraph.Time(to)), nil
}

func main() {
	var (
		dir        = flag.String("dir", "", "graph directory (required)")
		rep        = flag.String("rep", "ve", "representation: ve | rg | og | ogc")
		from       = flag.Int64("from", 0, "load range start (0 and 0 = everything)")
		to         = flag.Int64("to", 0, "load range end")
		info       = flag.Bool("info", false, "print graph statistics and exit")
		keyStats   = flag.Bool("stats", false, "print the property key-dictionary summary (distinct keys, per-key cardinality and value types) plus the WAL segment/pending-record summary, and exit")
		azoom      = flag.String("azoom", "", "aZoom^T: group vertices by this property")
		count      = flag.String("count", "", "aZoom^T: add a count aggregate under this label")
		wzoom      = flag.String("wzoom", "", "wZoom^T window spec, e.g. \"3 months\" or \"2 changes\"")
		vquant     = flag.String("vquant", "exists", "wZoom^T vertex quantifier")
		equant     = flag.String("equant", "exists", "wZoom^T edge quantifier")
		dump       = flag.Int("dump", 0, "print up to N vertex and edge states of the result")
		trace      = flag.Bool("trace", false, "record per-stage spans and print the span tree after execution")
		timeout    = flag.Duration("timeout", 0, "deadline for all dataflow work, e.g. 30s (0 = none)")
		permissive = flag.Bool("permissive", false, "skip corrupt chunks while loading instead of aborting")
		scanPar    = flag.Int("scan-parallelism", 0, "storage scan decode workers per file (0 = GOMAXPROCS, 1 = sequential)")
		verify     = flag.Bool("verify", false, "check MANIFEST, file CRCs, every chunk CRC and the WAL segments, print a damage report, and exit (status 1 if damaged)")
		repair     = flag.Bool("repair", false, "remove aborted-save litter, heal the WAL, retire subsumed segments and quarantine unexpected files, then exit")
		compact    = flag.Bool("compact", false, "fold the write-ahead log tail into a fresh committed epoch and retire its segments, then exit (offline only: the directory must not be served)")
	)
	flag.Parse()
	if *dir == "" {
		fail("-dir is required")
	}
	rng, err := loadRange(*from, *to)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tgraph-cli: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *compact {
		var copts []tgraph.Option
		if *timeout > 0 {
			copts = append(copts, tgraph.WithTimeout(*timeout))
		}
		ctx := tgraph.NewContext(copts...)
		defer ctx.Close()
		res, err := tgraph.Compact(ctx, *dir, nil, tgraph.SaveOptions{})
		if err != nil {
			fail("compact: %v", err)
		}
		fmt.Printf("compacted %s: folded %d WAL record(s) through seq %d, retired %d segment(s)\n",
			*dir, res.Folded, res.WALSeq, res.SegmentsRetired)
		return
	}
	if *repair {
		removed, err := tgraph.RepairDir(*dir)
		if err != nil {
			fail("repair: %v", err)
		}
		if len(removed) == 0 {
			fmt.Println("nothing to repair")
		}
		for _, name := range removed {
			fmt.Printf("removed %s\n", name)
		}
		if !*verify {
			return
		}
	}
	if *verify {
		rep, err := tgraph.VerifyDir(*dir)
		if err != nil {
			fail("verify: %v", err)
		}
		fmt.Print(rep)
		if !rep.Clean {
			os.Exit(1)
		}
		return
	}
	if *trace {
		obs.SetTracing(true)
	}

	reps := map[string]tgraph.Representation{"ve": tgraph.VE, "rg": tgraph.RG, "og": tgraph.OG, "ogc": tgraph.OGC}
	r, ok := reps[*rep]
	if !ok {
		fail("unknown representation %q", *rep)
	}

	var copts []tgraph.Option
	if *timeout > 0 {
		copts = append(copts, tgraph.WithTimeout(*timeout))
	}
	ctx := tgraph.NewContext(copts...)
	defer ctx.Close()
	g, stats, err := tgraph.Load(ctx, *dir, tgraph.LoadOptions{
		Rep: r, Range: rng, Permissive: *permissive,
		Scan: tgraph.ScanOptions{Parallelism: *scanPar},
	})
	if err != nil {
		fail("load: %v", err)
	}
	fmt.Printf("loaded %s: %d vertices, %d edges, lifetime %v (chunks read %d, skipped %d)\n",
		g.Rep(), g.NumVertices(), g.NumEdges(), g.Lifetime(), stats.ChunksRead, stats.ChunksSkipped)
	if stats.ChunksCorrupt > 0 || stats.RowsCorrupt > 0 {
		fmt.Fprintf(os.Stderr, "tgraph-cli: warning: permissive load skipped %d corrupt chunk(s) and dropped %d corrupt row(s); results are partial\n",
			stats.ChunksCorrupt, stats.RowsCorrupt)
	}

	if *info {
		printInfo(g)
		return
	}

	if *keyStats {
		printKeyStats(g)
		printWALStats(*dir)
		return
	}

	p := tgraph.NewPipeline(g)
	if *azoom != "" {
		var aggs []tgraph.AggField
		if *count != "" {
			aggs = append(aggs, tgraph.Count(*count))
		}
		p = p.AZoom(tgraph.GroupByProperty(*azoom, *azoom+"-group", aggs...))
	}
	if *wzoom != "" {
		w, err := tgraph.ParseWindowSpec(*wzoom)
		if err != nil {
			fail("%v", err)
		}
		vq, err := tgraph.ParseQuantifier(*vquant)
		if err != nil {
			fail("%v", err)
		}
		eq, err := tgraph.ParseQuantifier(*equant)
		if err != nil {
			fail("%v", err)
		}
		p = p.WZoom(tgraph.WZoomSpec{
			Window: w, VQuant: vq, EQuant: eq,
			VResolve: tgraph.LastWins, EResolve: tgraph.LastWins,
		})
	}
	out, err := p.Result()
	if err != nil {
		fail("pipeline: %v", err)
	}
	fmt.Printf("pipeline %v -> %d vertices, %d edges, lifetime %v\n",
		p.Steps(), out.NumVertices(), out.NumEdges(), out.Lifetime())
	if *dump > 0 {
		dumpStates(out, *dump)
	}
	if *trace {
		fmt.Print("trace:\n", obs.FormatSpans(obs.Spans()))
	}
}

func printInfo(g tgraph.Graph) {
	vs := g.VertexStates()
	es := g.EdgeStates()
	fmt.Printf("  vertex states: %d\n  edge states:   %d\n", len(vs), len(es))
	types := map[string]int{}
	for _, v := range vs {
		types[v.Props.Type()]++
	}
	keys := make([]string, 0, len(types))
	for k := range types {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  vertex type %q: %d states\n", k, types[k])
	}
	if rg, ok := g.(*core.RG); ok {
		fmt.Printf("  snapshots: %d\n", rg.NumSnapshots())
	}
}

// printWALStats renders the write-ahead-log side of -stats: the
// segment inventory and how many durable records the committed
// manifest has not yet subsumed (those replay on every load until the
// next compaction folds them in).
func printWALStats(dir string) {
	infos, err := tgraph.InspectWAL(dir)
	if err != nil {
		fail("wal inspect: %v", err)
	}
	if len(infos) == 0 {
		fmt.Println("wal: no segments")
		return
	}
	var bytes int64
	records, damaged := 0, 0
	for _, s := range infos {
		bytes += s.Bytes
		records += s.Records
		if s.Status != "ok" {
			damaged++
		}
	}
	fmt.Printf("wal: %d segment(s), %d bytes, %d record(s)", len(infos), bytes, records)
	if damaged > 0 {
		fmt.Printf(", %d segment(s) damaged (run -verify)", damaged)
	}
	fmt.Println()
	sub, err := tgraph.SubsumedWALSeq(dir)
	if err != nil {
		fail("wal stats: read manifest: %v", err)
	}
	rr, err := tgraph.ReadWAL(dir, sub, true)
	if err != nil {
		fail("wal stats: read log: %v", err)
	}
	if len(rr.Deltas) == 0 {
		fmt.Printf("wal: manifest subsumes every record (through seq %d); nothing pending\n", sub)
		return
	}
	fmt.Printf("wal: %d pending record(s) past the manifest (seq %d..%d) — folded at the next compaction\n",
		len(rr.Deltas), sub+1, rr.LastSeq)
}

// printKeyStats renders the per-graph key-dictionary summary: every
// property label the graph's states carry, with how many states use
// it, the distinct-value cardinality, and the value kinds observed.
func printKeyStats(g tgraph.Graph) {
	type keyStat struct {
		states int
		values map[string]struct{}
		kinds  map[tgraph.Kind]struct{}
	}
	byKey := map[tgraph.Key]*keyStat{}
	collect := func(p tgraph.Props) {
		p.Range(func(k tgraph.Key, v tgraph.Value) bool {
			st := byKey[k]
			if st == nil {
				st = &keyStat{values: map[string]struct{}{}, kinds: map[tgraph.Kind]struct{}{}}
				byKey[k] = st
			}
			st.states++
			kind, payload := v.Encode()
			st.values[fmt.Sprintf("%d\x00%s", kind, payload)] = struct{}{}
			st.kinds[v.Kind()] = struct{}{}
			return true
		})
	}
	for _, v := range g.VertexStates() {
		collect(v.Props)
	}
	for _, e := range g.EdgeStates() {
		collect(e.Props)
	}
	labels := make([]string, 0, len(byKey))
	stats := make(map[string]*keyStat, len(byKey))
	for k, st := range byKey {
		labels = append(labels, k.Name())
		stats[k.Name()] = st
	}
	sort.Strings(labels)
	fmt.Printf("key dictionary: %d distinct keys in graph, %d labels interned process-wide\n",
		len(labels), tgraph.DictSize())
	for _, label := range labels {
		st := stats[label]
		kinds := make([]string, 0, len(st.kinds))
		for k := range st.kinds {
			kinds = append(kinds, k.String())
		}
		sort.Strings(kinds)
		fmt.Printf("  %-16s %8d states  %8d distinct values  kinds %v\n",
			label, st.states, len(st.values), kinds)
	}
}

func dumpStates(g tgraph.Graph, n int) {
	_, _, vs, es := core.CoalescedStates(g)
	fmt.Println("vertices:")
	for i, v := range vs {
		if i >= n {
			fmt.Printf("  ... and %d more\n", len(vs)-n)
			break
		}
		fmt.Printf("  %d %v {%v}\n", v.ID, v.Interval, v.Props)
	}
	fmt.Println("edges:")
	for i, e := range es {
		if i >= n {
			fmt.Printf("  ... and %d more\n", len(es)-n)
			break
		}
		fmt.Printf("  %d: %d -> %d %v {%v}\n", e.ID, e.Src, e.Dst, e.Interval, e.Props)
	}
}
