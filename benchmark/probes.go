package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/incr"
	"repro/internal/props"
	"repro/internal/qcache"
	"repro/internal/resil"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// probes measures layers one at a time, after the traced window, by
// calling their public functions directly on the run's own graph.
// Nothing else runs meanwhile, so the allocation counts are exact and
// the timings uncontended: they say what a layer costs, the window says
// how much of it a workload pays. Each workload probes only the layers
// it is there to exercise, so every probe metric is measured once per
// seed, on the inputs of the workload it is predicted to move.
func (r *run) probes(d *dataset) error {
	p := &prober{run: r, d: d, reps: r.sz.probeReps}
	p.ctx = dataflow.NewContext(dataflow.WithParallelism(serverParallelism))
	defer p.ctx.Close()
	p.dir = r.work.fresh("probe")
	if _, err := d.save(p.ctx, p.dir, r.sz.chunkRows); err != nil {
		return err
	}
	first, err := p.load(core.RepVE)
	if err != nil {
		return err
	}
	p.ve, p.veStats = first.g, first.stats
	steps := map[string][]func() error{
		wlExplore: {p.storage, p.core},
		wlHot:     {p.cacheAndAdmission, p.serveHit},
		wlChurn:   {p.serveMiss},
		wlIngest:  {p.wal, p.compact, p.reload, p.incr, p.serveAppend},
		wlShard:   {p.shard},
	}
	for _, step := range steps[r.workload] {
		if err := step(); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

type prober struct {
	*run
	d    *dataset
	ctx  *dataflow.Context
	dir  string
	reps int

	// ve is the probe directory loaded whole as VE, before any probe
	// appends to it: the resident graph the probes share.
	ve      core.TGraph
	veStats storage.ScanStats
	// bases of serve.append_overhead_ms
	walAppendMS, applyMS float64
}

// must panics on an error inside a timed closure; the closures run
// calls that already succeeded once in this run.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("benchmark probe: %v", err))
	}
	return v
}

// loaded is one full load of the probe directory.
type loaded struct {
	g     core.TGraph
	stats storage.ScanStats
}

func (p *prober) load(rep core.Representation) (loaded, error) {
	g, stats, err := storage.Load(p.ctx, p.dir, storage.LoadOptions{Rep: rep})
	return loaded{g, stats}, err
}

func (p *prober) storage() error {
	for _, rep := range []core.Representation{core.RepVE, core.RepOG, core.RepRG, core.RepOGC} {
		if _, err := p.load(rep); err != nil {
			return err
		}
		lat := timeN(p.reps, func() { must(p.load(rep)) })
		p.set("storage.load_ms_p50."+lower(rep), msOf(p50(lat)))
		if rep != core.RepVE {
			continue
		}
		stats := p.veStats
		sec := p50(lat).Seconds()
		p.set("storage.decode_mb_per_s", ratio(float64(stats.BytesRead)/1e6, sec))
		p.set("storage.rows_per_s", ratio(float64(stats.RowsRead), sec))
		allocs, _ := allocsPer(p.reps, func() { must(p.load(rep)) })
		p.set("storage.allocs_per_row", ratio(allocs, float64(stats.RowsRead)))
	}
	return nil
}

func lower(rep core.Representation) string {
	return map[core.Representation]string{core.RepVE: "ve", core.RepOG: "og", core.RepRG: "rg", core.RepOGC: "ogc"}[rep]
}

func (p *prober) core() error {
	az := core.GroupByProperty("firstName", "cohort", props.Count("members"))
	wz := core.WZoomSpec{Window: temporal.MustEveryN(3), VQuant: temporal.All(), EQuant: temporal.Exists(),
		VResolve: props.LastWins, EResolve: props.LastWins}
	ms := make(map[string]float64)
	for _, rep := range []core.Representation{core.RepVE, core.RepOG, core.RepRG, core.RepOGC} {
		g, err := core.Convert(p.ve, rep)
		if err != nil {
			return err
		}
		name := lower(rep)
		wzoom := func() { must(g.WZoom(wz)) }
		wzoom()
		ms["w"+name] = msOf(p50(timeN(p.reps, wzoom)))
		p.set("core.wzoom_ms_p50."+name, ms["w"+name])
		if rep == core.RepVE || rep == core.RepOGC {
			allocs, _ := allocsPer(p.reps, wzoom)
			p.set("core.wzoom_allocs_per_op."+name, allocs)
		}
		if rep == core.RepOGC {
			continue // aZoom needs attributes OGC does not store
		}
		azoom := func() { must(g.AZoom(az)) }
		azoom()
		ms["a"+name] = msOf(p50(timeN(p.reps, azoom)))
		p.set("core.azoom_ms_p50."+name, ms["a"+name])
		if rep == core.RepVE || rep == core.RepOG {
			allocs, kib := allocsPer(p.reps, azoom)
			p.set("core.azoom_allocs_per_op."+name, allocs)
			if rep == core.RepOG {
				p.set("core.azoom_kb_per_op.og", kib)
			}
		}
	}
	p.set("core.azoom_rg_over_ve", ratio(ms["arg"], ms["ave"]))
	p.set("core.azoom_og_over_ve", ratio(ms["aog"], ms["ave"]))
	p.set("core.wzoom_ogc_over_ve", ratio(ms["wogc"], ms["wve"]))

	zoomed, err := p.ve.AZoom(az)
	if err != nil {
		return err
	}
	p.set("core.coalesce_ms_p50", msOf(p50(timeN(p.reps, func() { zoomed.Coalesce() }))))
	p.set("core.convert_ms_p50.og", msOf(p50(timeN(p.reps, func() { must(core.Convert(p.ve, core.RepOG)) }))))
	return nil
}

// perCall times batches of `batch` calls and returns the median
// per-call time in nanoseconds: the calls are too short to time one by
// one.
func perCall(batches, batch int, fn func()) float64 {
	lat := timeN(batches, func() {
		for i := 0; i < batch; i++ {
			fn()
		}
	})
	return float64(p50(lat)) / float64(batch)
}

const walProbeAppends = 200

func (p *prober) wal() error {
	// A directory with a one-vertex base and nothing but log on top, so
	// the replay probe below measures the log and not the files.
	dir := p.work.fresh("wal")
	seedGraph := core.NewVE(p.ctx, p.d.vs[:1], nil)
	if err := storage.SaveGraph(dir, seedGraph, storage.SaveOptions{}); err != nil {
		return err
	}
	l, _, err := wal.Open(dir, wal.Options{Mode: wal.SyncEachAppend})
	if err != nil {
		return err
	}
	gen := newDeltaGen(p.d, p.sz, p.seed)
	batches := make([][]wal.Delta, walProbeAppends)
	for i := range batches {
		batches[i] = gen.batch(i, p.sz.batch)
	}
	before, bytesBefore := readCounters(), l.Bytes()
	start := time.Now()
	lat := make([]time.Duration, len(batches))
	for i, b := range batches {
		t := time.Now()
		if _, err := l.Append(b...); err != nil {
			l.Close()
			return err
		}
		lat[i] = time.Since(t)
	}
	wall := time.Since(start)
	after := readCounters()
	records := float64(len(batches) * p.sz.batch)
	sortDurations(lat)
	a50, _ := percentile(lat, 0.5)
	a95, _ := supportedTail(lat, 0.95)
	p.walAppendMS = msOf(a50)
	p.set("wal.append_us_p50", usOf(a50))
	p.set("wal.append_us_p95", usOf(a95))
	p.set("wal.syncs_per_append", ratio(after.delta(before, "storage.wal.syncs"), float64(len(batches))))
	p.set("wal.bytes_per_record", ratio(float64(l.Bytes()-bytesBefore), records))
	p.set("wal.append_rec_per_s.1", records/wall.Seconds())

	// Two appenders, closed loop, the same number of batches between them.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start = time.Now()
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := a; i < len(batches); i += 2 {
				if _, err := l.Append(batches[i]...); err != nil {
					errs[a] = err
					return
				}
			}
		}(a)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			l.Close()
			return err
		}
	}
	p.set("wal.append_rec_per_s.2", records/wall.Seconds())
	if err := l.Close(); err != nil {
		return err
	}

	var replayed int
	lat = timeN(p.reps, func() {
		_, stats, err := storage.Load(p.ctx, dir, storage.LoadOptions{Rep: core.RepVE})
		must(0, err)
		replayed = stats.WALReplayed
	})
	p.set("wal.replay_rec_per_s", ratio(float64(replayed), p50(lat).Seconds()))
	return nil
}

// compact times storage.Compact over the probe's graph directory with a
// log tail of one compaction interval, the shape ingest-mixed produces.
func (p *prober) compact() error {
	gen := newDeltaGen(p.d, p.sz, p.seed+1)
	n := 0
	var lat []time.Duration
	for rep := 0; rep < max(2, p.reps/2); rep++ {
		l, _, err := wal.Open(p.dir, wal.Options{Mode: wal.SyncEachAppend})
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			n++
			if _, err := l.Append(gen.batch(n, p.sz.batch)...); err != nil {
				l.Close()
				return err
			}
		}
		start := time.Now()
		_, err = storage.Compact(p.ctx, p.dir, l, storage.SaveOptions{ChunkRows: p.sz.chunkRows})
		lat = append(lat, time.Since(start))
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	p.set("storage.compact_ms_p50", msOf(p50(lat)))
	return nil
}

// cacheAndAdmission times the two calls every request makes before it
// reaches a graph: a cache lookup that hits a body-sized value, and an
// uncontended admission.
func (p *prober) cacheAndAdmission() error {
	c := qcache.New(64 << 20)
	body := make([]byte, 512<<10)
	key := "g|full|v0|" + qcache.Key("stamp", "wzoom(w=3 units)")
	compute := func() (any, int64, error) { return body, int64(len(body)), nil }
	if _, _, err := c.DoCtx(context.Background(), key, compute); err != nil {
		return err
	}
	ctx := context.Background()
	p.set("qcache.do_hit_ns_p50", perCall(200, 100, func() {
		if _, out, _ := c.DoCtx(ctx, key, compute); out != qcache.Hit {
			panic("benchmark probe: resident key missed")
		}
	}))
	lim := resil.NewLimiter(maxInflight, queueDepth)
	p.set("resil.acquire_ns_p50", perCall(200, 100, func() {
		release, err := lim.Acquire(ctx)
		must(0, err)
		release()
	}))
	return nil
}

// probeSpecs are the three chains the serve and shard probes time: a
// range wZoom, a range aZoom and a range aZoom-then-wZoom, each over
// half the lifetime.
func probeSpecs(snapshots int) []spec {
	q := snapshots / 4
	return []spec{
		newSpec(graphName, rangeStep(q, 3*q), wzoomStep(3, "exists")),
		newSpec(graphName, rangeStep(q, 3*q), azoomStep("firstName", "members")),
		newSpec(graphName, rangeStep(q, 3*q), azoomStep("firstName", "members"), wzoomStep(3, "exists")),
	}
}

// serveMiss times requests on a server that keeps nothing resident, so
// it computes every one, beside the same chains run directly on the
// library: the difference is what the serving layer adds to a miss.
func (p *prober) serveMiss() error {
	specs := probeSpecs(p.sz.snapshots)
	noCache, err := newServer(p.dir, 0, 0, 0)
	if err != nil {
		return err
	}
	defer noCache.Drain()
	st := &serveState{specs: specs, srv: noCache, handler: noCache.Handler(), mutable: true}
	c := newClient(0)
	var miss, direct []time.Duration
	var bodies []time.Duration // body sizes, carried as durations to reuse p50
	other := dataflow.NewContext(dataflow.WithParallelism(serverParallelism))
	defer other.Close()
	per := perCall(200, 50, func() { must(core.Rebind(p.ve, other)) })
	p.set("core.rebind_us_p50", per/1000)
	for i, sp := range specs {
		steps, err := directSteps(sp.steps)
		if err != nil {
			return err
		}
		for rep := 0; rep <= p.reps; rep++ {
			out := c.request(nil, 0, st, i, true)
			if out.err != "" {
				return fmt.Errorf("%s: %s", sp.name, out.err)
			}
			start := time.Now()
			rb := must(core.Rebind(p.ve, other))
			res := must(runDirect(rb, steps))
			res.VertexStates()
			res.EdgeStates()
			took := time.Since(start)
			if rep == 0 {
				continue // the first request also loads the graph
			}
			miss = append(miss, out.took)
			direct = append(direct, took)
			bodies = append(bodies, time.Duration(len(c.w.body)))
		}
	}
	p.set("serve.miss_ms_p50", msOf(p50(miss)))
	p.set("serve.miss_overhead_ms", msOf(p50(miss))-msOf(p50(direct)))
	p.set("serve.body_kb_p50", float64(p50(bodies))/1024)
	return nil
}

// serveHit times one resident spec on a caching server.
func (p *prober) serveHit() error {
	srv, err := newServer(p.dir, p.sz.hotCacheBytes, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Drain()
	hs := &serveState{specs: probeSpecs(p.sz.snapshots)[:1], srv: srv, handler: srv.Handler(), mutable: true}
	c := newClient(0)
	if out := c.request(nil, 0, hs, 0, false); out.err != "" {
		return fmt.Errorf("%s: %s", hs.specs[0].name, out.err)
	}
	hit := func() {
		if out := c.request(nil, 0, hs, 0, false); out.cache != "hit" {
			panic("benchmark probe: expected a hit, got " + out.cache + " " + out.err)
		}
	}
	var hits []time.Duration
	for i := 0; i < 100*p.reps; i++ {
		hits = append(hits, c.request(nil, 0, hs, 0, false).took)
	}
	allocs, _ := allocsPer(50*p.reps, hit)
	hitUS := usOf(p50(hits))
	p.set("serve.hit_us_p50", hitUS)
	p.set("serve.hit_allocs_per_op", allocs)
	p.set("serve.hit_overhead_us", hitUS-(p.metrics["qcache.do_hit_ns_p50"]+p.metrics["resil.acquire_ns_p50"])/1000)
	return nil
}

// serveAppend times /v1/append, with nothing else running, on a server
// that has registered one view; it runs after the wal and incr probes,
// whose medians it takes out.
func (p *prober) serveAppend() error {
	srv, err := newServer(p.dir, p.sz.hotCacheBytes, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Drain()
	hs := &serveState{specs: []spec{newSpec(graphName, wzoomStep(3, "exists"))}, srv: srv, handler: srv.Handler(), mutable: true}
	if out := newClient(0).request(nil, 0, hs, 0, false); out.err != "" {
		return fmt.Errorf("%s: %s", hs.specs[0].name, out.err)
	}
	gen := newDeltaGen(p.d, p.sz, p.seed+2)
	w := newMemWriter()
	var appends []time.Duration
	for i := 0; i <= max(8, 2*p.reps); i++ {
		body := appendBody(gen.batch(0, p.sz.batch))
		start := time.Now()
		if msg := postAppend(hs.handler, w, body); msg != "" {
			return fmt.Errorf("append: %s", msg)
		}
		if i > 0 { // the first append builds the view
			appends = append(appends, time.Since(start))
		}
	}
	appendMS := msOf(p50(appends))
	p.set("serve.append_ms_p50", appendMS)
	// One view is registered, so one Apply is inside the append time.
	p.set("serve.append_overhead_ms", appendMS-p.walAppendMS-p.applyMS)
	return nil
}

// reload times the first query after an inline compaction: the
// compaction swept the graph's cache entries, so the query is computed
// over the resident graph. The server compacts on every full batch.
func (p *prober) reload() error {
	srv, err := newServer(p.dir, p.sz.hotCacheBytes, 0, p.sz.batch)
	if err != nil {
		return err
	}
	defer srv.Drain()
	st := &serveState{specs: probeSpecs(p.sz.snapshots)[:1], srv: srv, handler: srv.Handler(), mutable: true}
	c, w := newClient(0), newMemWriter()
	gen := newDeltaGen(p.d, p.sz, p.seed+4)
	before := readCounters()
	var lat []time.Duration
	for i := 0; i <= p.reps; i++ {
		if out := c.request(nil, 0, st, 0, false); out.err != "" {
			return fmt.Errorf("%s: %s", st.specs[0].name, out.err)
		}
		if msg := postAppend(st.handler, w, appendBody(gen.batch(0, p.sz.batch))); msg != "" {
			return fmt.Errorf("append: %s", msg)
		}
		out := c.request(nil, 0, st, 0, false)
		if out.err != "" || out.cache == "hit" {
			return fmt.Errorf("%s after a compaction: cache %q %s", st.specs[0].name, out.cache, out.err)
		}
		lat = append(lat, out.took)
	}
	if n := readCounters().delta(before, "serve.compactions"); int(n) != len(lat) {
		return fmt.Errorf("%v inline compactions for %d appends of a full batch", n, len(lat))
	}
	p.set("storage.reload_ms_p50", msOf(p50(lat)))
	return nil
}

func (p *prober) incr() error {
	az := core.GroupByProperty("firstName", "firstName-group", props.Count("members"))
	wz := core.WZoomSpec{Window: temporal.MustEveryN(3), VQuant: temporal.Exists(), EQuant: temporal.Exists(),
		VResolve: props.LastWins, EResolve: props.LastWins}
	var build []time.Duration
	var views []incr.View
	for i := 0; i < max(2, p.reps/2); i++ {
		start := time.Now()
		av, err := incr.NewAZoomView(p.ve, az, incr.Options{})
		if err != nil {
			return err
		}
		build = append(build, time.Since(start))
		start = time.Now()
		wv, err := incr.NewWZoomView(p.ve, wz, incr.Options{})
		if err != nil {
			return err
		}
		build = append(build, time.Since(start))
		views = []incr.View{av, wv}
	}
	p.set("incr.build_ms_p50", msOf(p50(build)))
	gen := newDeltaGen(p.d, p.sz, p.seed+3)
	var apply []time.Duration
	for i := 0; i < 20*p.reps; i++ {
		batch := gen.batch(i, p.sz.batch)
		for _, v := range views {
			start := time.Now()
			if _, err := v.Apply(batch); err != nil {
				return err
			}
			apply = append(apply, time.Since(start))
		}
	}
	p.applyMS = msOf(p50(apply))
	p.set("incr.apply_us_p50", 1000*p.applyMS)
	return nil
}

func (p *prober) shard() error {
	strategy, err := shard.ParseStrategy("EdgePartition2D")
	if err != nil {
		return err
	}
	vs, es := p.ve.VertexStates(), p.ve.EdgeStates()
	var parts []shard.Part
	split := timeN(p.reps, func() { parts, _ = shard.Split(vs, es, strategy, 2) })
	p.set("graphx.partition_ms", msOf(p50(split)))
	held := 0
	for _, part := range parts {
		held += len(part.Masters) + len(part.Mirrors) + len(part.Edges)
	}
	p.set("shard.mirror_state_share", ratio(float64(held), float64(len(vs)+len(es))))

	coord := shard.NewFromStates(vs, es, strategy, 2, shard.Options{Parallelism: serverParallelism})
	defer coord.Close()
	h := p.sz.snapshots / 2
	chains := map[string][]spec{
		"azoom": {newSpec(graphName, azoomStep("firstName", "members"))},
		"wzoom": {newSpec(graphName, wzoomStep(3, "exists"))},
		"range": {newSpec(graphName, rangeStep(h/2, h+h/2), wzoomStep(3, "exists"))},
	}
	var sharded, flat float64
	for _, kind := range sortedKeys(chains) {
		sp := chains[kind][0]
		steps, err := directSteps(sp.steps)
		if err != nil {
			return err
		}
		q := shardQuery(sp.name, steps)
		run := func() {
			dctx := dataflow.NewContext(dataflow.WithParallelism(serverParallelism))
			defer dctx.Close()
			g, stats, err := coord.Run(context.Background(), dctx, q)
			must(0, err)
			if stats.OK != stats.N {
				panic("benchmark probe: partial shard coverage " + stats.Header())
			}
			c := g.Coalesce()
			c.VertexStates()
			c.EdgeStates()
		}
		run()
		ms := msOf(p50(timeN(p.reps, run)))
		p.set("shard.run_ms_p50."+kind, ms)
		sharded += ms
		flat += msOf(p50(timeN(p.reps, func() {
			res := must(runDirect(p.ve, steps))
			res.VertexStates()
			res.EdgeStates()
		})))
	}
	p.set("shard.over_unsharded_ratio", ratio(sharded, flat))
	p.notes = append(p.notes, fmt.Sprintf("shard.over_unsharded_ratio base: unsharded p50 sum of the three chains %.3f ms", flat))
	return nil
}

// windowCounterMetrics fills the per-layer metrics that are counter
// deltas of the timed window, per completed query or per acked append.
func (r *run) windowCounterMetrics(w *windowStats, ops, appends float64) {
	d := w.delta
	r.set("storage.bytes_read_per_op", ratio(d("storage.bytes_read"), ops))
	r.set("storage.chunks_read_per_op", ratio(d("storage.chunks_read"), ops))
	r.set("storage.chunks_skipped_share", ratio(d("storage.zone_map_skips"), d("storage.zone_map_skips")+d("storage.chunks_read")))
	r.set("storage.compactions", d("storage.compactions"))
	r.set("dataflow.shuffled_records_per_op", ratio(d("dataflow.shuffled_records"), ops))
	r.set("dataflow.jobs_per_op", ratio(d("dataflow.jobs"), ops))
	r.set("dataflow.tasks_per_op", ratio(d("dataflow.tasks"), ops))
	r.set("dataflow.max_workers_busy", float64(w.after.gauges["dataflow.workers_busy_max"]))
	r.set("qcache.evictions_per_kop", ratio(1000*d("qcache.evictions"), ops))
	r.set("qcache.patches_per_append", ratio(d("qcache.patches"), appends))
	r.set("qcache.invalidated_per_append", ratio(d("serve.cache_invalidated"), appends))
	r.set("qcache.resident_mb", float64(w.after.gauges["qcache.bytes"])/(1<<20))
	r.set("resil.queued_share", ratio(float64(w.after.queued-w.before.queued), d("resil.admit.admitted")))
	r.set("resil.shed_share", ratio(d("serve.shed_requests"), d("serve.requests")+d("serve.shed_requests")))
	r.set("incr.fallback_share", ratio(d("incr.fallback_full"), d("incr.applies")))
	r.set("incr.groups_patched_per_append", ratio(d("incr.groups_patched"), appends))
	r.set("incr.windows_recomputed_per_append", ratio(d("incr.windows_recomputed"), appends))
	r.set("shard.legs_per_op", ratio(d("shard.legs"), d("shard.scatters")))
	r.set("shard.fallback_share", ratio(d("shard.fallbacks"), d("shard.scatters")))
	r.set("shard.leg_ms_p95", w.after.legP95MS)
}
