package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// appendBody encodes one batch as a /v1/append request.
func appendBody(ds []wal.Delta) []byte {
	req := serve.AppendRequest{Graph: graphName}
	for _, d := range ds {
		dj := serve.DeltaJSON{ID: d.ID, Start: int64(d.Interval.Start), End: int64(d.Interval.End), Props: map[string]string{}}
		d.Props.Range(func(k props.Key, v props.Value) bool {
			dj.Props[k.Name()] = v.String()
			return true
		})
		if d.Kind == wal.KindEdge {
			dj.Kind, dj.Src, dj.Dst = "edge", d.Src, d.Dst
		} else {
			dj.Kind = "vertex"
		}
		req.Deltas = append(req.Deltas, dj)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings and ints only
	}
	return b
}

// postAppend sends one encoded batch and returns an error text for
// anything but a clean ack.
func postAppend(h http.Handler, w *memWriter, body []byte) string {
	w.reset()
	req, err := http.NewRequest(http.MethodPost, "/v1/append", bytes.NewReader(body))
	if err != nil {
		return err.Error()
	}
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		return fmt.Sprintf("append status %d: %s", w.code, strings.TrimSpace(string(w.body)))
	}
	if c := w.h.Get("X-TGraph-Compact"); c != "" {
		return "compaction " + c
	}
	return ""
}

// ingestOrder lays the reader's 16 chains out as the 36-request cycle
// it repeats: every full-graph view four times, every old-range chain
// twice, every frontier chain once. The frontier chains are recomputed
// on nearly every read, and a read in nine of that kind, on top of the
// reads that wait for an append, keeps the median request a cache hit
// with a margin. At equal weights half the requests are recomputed or
// waiting, and the p50 flips between the two kinds from run to run.
func ingestOrder(views, old, frontier []spec) (specs []spec, cycle []int) {
	specs = append(append(append(specs, views...), old...), frontier...)
	nv, no := len(views), len(old)
	for f := range frontier {
		for i := 0; i < nv; i++ {
			cycle = append(cycle, i, nv+(nv*f+i)%no)
		}
		cycle = append(cycle, nv+no+f)
	}
	return specs, cycle
}

func (r *run) runIngest() error {
	views, old, frontier := ingestSpecs(r.sz.snapshots)
	specs, cycle := ingestOrder(views, old, frontier)
	nAppends := max(1, int(r.sz.appendsPerSec*r.window.Seconds()))
	nQueries := max(1, int(r.sz.queriesPerSec*r.window.Seconds()))
	compactAfter := max(1, nAppends*r.sz.batch/r.sz.compactionsPer)
	cfg := serveCfg{specs: func(*dataset) []spec { return specs }, cacheBytes: r.sz.hotCacheBytes, warm: len(specs), compactAfter: compactAfter}

	var st *serveState
	var gen *deltaGen
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.srv.Drain()
		}
		start := time.Now()
		var err error
		if st, err = r.setupServe(cfg, r.sz.ingestPersons); err != nil {
			return err
		}
		// From here on appends change the answers; the window checks
		// status and cache outcome, and verifyIngest checks the bodies.
		st.mutable = true
		// One append before the window builds the materialized views the
		// warm-up registered; reading the chains again recomputes what it
		// invalidated.
		// (The window's batches come from the same generator: it numbers
		// the new entities, and an id must not be handed out twice.)
		gen = newDeltaGen(st.data, r.sz, r.seed)
		if msg := postAppend(st.handler, newMemWriter(), appendBody(gen.batch(0, r.sz.batch))); msg != "" {
			return fmt.Errorf("warm-up append: %s", msg)
		}
		c := newClient(0)
		for i := range specs {
			if out := c.request(nil, 0, st, i, false); out.err != "" {
				return fmt.Errorf("warm-up re-read %s: %s", specs[i].name, out.err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", medianFloat(setups))

	bodies := make([][]byte, nAppends)
	for i := range bodies {
		bodies[i] = appendBody(gen.batch(i, r.sz.batch))
	}
	// Reads tick evenly; appends are moved off their grid by up to a
	// quarter of their interval either way.
	perSecond := func(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }
	appendDue := schedule(nAppends, perSecond(r.sz.appendsPerSec), appendJitter, rand.New(rand.NewSource(r.seed^0x0a11)))
	queryDue := schedule(nQueries, perSecond(r.sz.queriesPerSec), 0, nil)

	// Each generator goroutine owns the variables its send function
	// writes; wg.Wait orders them before the reads below.
	var (
		appendClock  wallClock
		appendRes    openLoopResult
		appendLat    []time.Duration
		appendFailed int

		queryClock               wallClock
		queryRes                 openLoopResult
		lat, latTraced, latPlain []time.Duration
		viewOutcomes             = map[string]int{}
		cached, queryFailed      int
	)
	w := r.beginWindow()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		mw := newMemWriter()
		appendRes = openLoop(&appendClock, w.start, appendDue, unsentGrace, func(i int, due time.Time) {
			if msg := postAppend(st.handler, mw, bodies[i]); msg != "" {
				appendFailed++
				r.problem("batch %d: %s", i, msg)
				return
			}
			appendLat = append(appendLat, time.Since(due))
		})
	}()
	go func() {
		defer wg.Done()
		c := newClient(r.seed)
		queryRes = openLoop(&queryClock, w.start, queryDue, unsentGrace, func(i int, due time.Time) {
			idx := cycle[i%len(cycle)]
			tr := r.tracerAt(time.Now())
			out := c.request(tr, int64(i), st, idx, false)
			took := time.Since(due)
			if out.err != "" {
				queryFailed++
				r.problem("%s: %s", specs[idx].name, out.err)
				return
			}
			lat = append(lat, took)
			if tr != nil {
				latTraced = append(latTraced, took)
			} else {
				latPlain = append(latPlain, took)
			}
			if idx < len(views) {
				viewOutcomes[out.cache]++
			}
			if out.cache == "hit" || out.cache == "patched" {
				cached++
			}
		})
	}()
	wg.Wait()
	w.close()
	// The generators poll the clock for the last 2 ms before each due
	// time; that CPU is theirs, not the program's.
	spun := appendClock.spun + queryClock.spun

	acked := len(appendLat)
	r.attempted = nAppends + nQueries
	r.failed = appendFailed + queryFailed + appendRes.unsent + queryRes.unsent
	if appendRes.unsent+queryRes.unsent > 0 {
		r.problem("generator fell more than %v behind: %d appends and %d queries never sent", unsentGrace, appendRes.unsent, queryRes.unsent)
	}
	r.windowMetrics(w, lat, float64(len(lat)+acked), spun)
	r.set("retained_heap_mb", retainedHeapMiB())
	disk, err := dirBytes(st.dir)
	if err != nil {
		return err
	}
	stored := st.data.states() + (1+acked)*r.sz.batch // the warm-up batch and every acked one
	r.set("disk_bytes_per_state", ratio(float64(disk), float64(stored)))

	sortDurations(appendLat)
	ap50, _ := percentile(appendLat, 0.5)
	ap95, apQ := supportedTail(appendLat, 0.95)
	r.samples["append"] = len(appendLat)
	r.samples["append_tail_pct"] = int(100 * apQ)
	r.samples["compactions"] = int(w.delta("serve.compactions"))
	late := sortDurations(append(append([]time.Duration(nil), appendRes.late...), queryRes.late...))
	l95, _ := supportedTail(late, 0.95)
	overdue := len(late) - sort.Search(len(late), func(i int) bool { return late[i] > time.Millisecond })
	r.notes = append(r.notes, fmt.Sprintf("append ack p50 %.3f ms, p%.0f %.3f ms over %d batches of %d; generator late p50 %.3f ms, p95 %.3f ms, polled the clock for %.0f ms (not in harness.cpu_ms_per_op); view outcomes %v",
		msOf(ap50), 100*apQ, msOf(ap95), len(appendLat), r.sz.batch, msOf(p50(late)), msOf(l95), msOf(spun), viewOutcomes))

	patchedShare := ratio(float64(viewOutcomes["patched"]), float64(viewOutcomes["patched"]+viewOutcomes["miss"]))
	if r.sz == fullSizes && r.window >= 10*time.Second {
		if n := w.delta("serve.compactions"); n < 3 {
			r.problem("%v inline compactions in the window, want >= 3", n)
		}
		if patchedShare == 0 {
			r.problem("no view-eligible query was answered from a patched entry")
		}
	}

	gold := goldenDigest(specs, st.goldenSHA)
	r.verifyIngest(st, specs, stored)
	r.golden(r.workload, gold, st.data)

	if r.traced {
		r.set("datagen.generate_s", st.data.genTime.Seconds())
		r.set("storage.save_ms", msOf(st.save))
		r.windowCounterMetrics(w, float64(len(lat)), float64(acked))
		r.set("incr.patched_share", patchedShare)
		r.set("qcache.hit_share", ratio(float64(cached), float64(len(lat))))
		r.set("harness.append_p50_ms", msOf(ap50))
		r.set("harness.append_p95_ms", msOf(ap95))
		r.set("harness.late_share", ratio(float64(overdue), float64(len(late))))
		r.set("obs.trace_overhead_pct", traceOverheadPct(latTraced, latPlain))
		r.spanMetrics()
		return r.probes(st.data)
	}
	return nil
}

// verifyIngest closes the loop on the write path once the window is
// over: the live server's answer to every chain (patched, resident or
// recomputed) must equal, byte for byte, the answer of a fresh server
// that loads the directory cold, and a fresh load must hold exactly the
// base states plus every acked delta.
func (r *run) verifyIngest(st *serveState, specs []spec, stored int) {
	c := newClient(0)
	live := make([][]byte, len(specs))
	for i := range specs {
		if out := c.request(nil, 0, st, i, false); out.err != "" {
			r.problem("live %s: %s", specs[i].name, out.err)
			continue
		}
		live[i] = append([]byte(nil), c.w.body...)
	}
	st.srv.Drain()

	ctx := dataflow.NewContext(dataflow.WithParallelism(serverParallelism))
	defer ctx.Close()
	g, _, err := storage.Load(ctx, st.dir, storage.LoadOptions{Rep: core.RepVE})
	if err != nil {
		r.problem("reload after drain: %v", err)
		return
	}
	if got := len(g.VertexStates()) + len(g.EdgeStates()); got != stored {
		r.problem("reload holds %d states, want base + acked = %d", got, stored)
	}

	srv, err := newServer(st.dir, r.sz.hotCacheBytes, 0, 0)
	if err != nil {
		r.problem("cold server: %v", err)
		return
	}
	defer srv.Drain()
	cold := &serveState{specs: specs, srv: srv, handler: srv.Handler(), mutable: true}
	for i := range specs {
		if out := c.request(nil, 0, cold, i, false); out.err != "" {
			r.problem("cold %s: %s", specs[i].name, out.err)
		} else if live[i] != nil && !bytes.Equal(live[i], c.w.body) {
			r.problem("%s: live body (%d bytes) differs from the cold recompute (%d bytes)", specs[i].name, len(live[i]), len(c.w.body))
		}
	}
}
