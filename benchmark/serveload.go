package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/serve"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hitCheckEvery is how often a cache hit's body is checksummed against
// the body the first computation produced. A hit costs about as much
// as checksumming its body, so checking each one would double the load
// the generator puts on the cores; computed bodies are always checked.
const hitCheckEvery = 16

// specRef is what the first response to a spec looked like; every later
// response to the same spec must match it.
type specRef struct {
	seen bool
	n    int
	crc  uint32
}

// serveState is one set-up of a serve workload: the saved graph, the
// server over it and the per-spec reference answers.
type serveState struct {
	data    *dataset
	dir     string
	srv     *serve.Server
	handler http.Handler
	specs   []spec
	shards  int
	save    time.Duration
	// mutable marks a server that takes appends: answers change, so
	// responses are not held to the first one.
	mutable bool

	mu   sync.Mutex
	refs []specRef
	// goldenSHA holds the SHA-256 of each warm-up body, in spec order.
	goldenSHA []string
}

// serveCfg is what distinguishes serve-hot, serve-churn and
// shard-scatter.
type serveCfg struct {
	// specs lists the workload's distinct queries over the generated
	// graph.
	specs   func(*dataset) []spec
	clients int
	// pick returns a client's draw over n specs.
	pick       func(rng *rand.Rand, n int) func() int
	cacheBytes int64
	shards     int
	// warm is how many specs (from the head of the list) the warm-up
	// touches; they are also the specs whose bodies the golden digest
	// covers.
	warm int
	// compactAfter is the server's inline compaction threshold; 0 = none.
	compactAfter int
}

func (r *run) serveConfig() serveCfg {
	hot := func(*dataset) []spec { return hotSpecs(r.sz.snapshots) }
	churn := func(d *dataset) []spec { return churnSpecs(d, r.sz.snapshots) }
	scatter := func(d *dataset) []spec { return scatterSpecs(d, r.sz.snapshots) }
	switch r.workload {
	case wlHot:
		return serveCfg{specs: hot, clients: 2, pick: zipfPick, cacheBytes: r.sz.hotCacheBytes, warm: 32}
	case wlChurn:
		return serveCfg{specs: churn, clients: 2, pick: uniformPick, cacheBytes: r.sz.churnCacheBytes, warm: 32}
	default: // wlShard
		// No cache, at the coordinator or in the workers: with serve-churn's,
		// a third of the whole-graph chains are answered from the
		// coordinator's and most of the rest from the workers' partial
		// results, the legs idle, and the shares differ by seed.
		return serveCfg{specs: scatter, clients: 1, pick: halfHeadPick(len(zoomChains())), shards: 2, warm: 32}
	}
}

func zipfPick(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

func uniformPick(rng *rand.Rand, n int) func() int {
	return func() int { return rng.Intn(n) }
}

// halfHeadPick draws every other request, on average, from the first
// head specs and the rest from those behind them, uniformly within each.
func halfHeadPick(head int) func(*rand.Rand, int) func() int {
	return func(rng *rand.Rand, n int) func() int {
		return func() int {
			if rng.Intn(2) == 0 {
				return rng.Intn(head)
			}
			return head + rng.Intn(n-head)
		}
	}
}

func newServer(dir string, cacheBytes int64, shards, compactAfter int) (*serve.Server, error) {
	return serve.New(serve.Config{
		Graphs:       []serve.GraphConfig{{Name: graphName, Dir: dir}},
		CacheBytes:   cacheBytes,
		Parallelism:  serverParallelism,
		Shards:       shards,
		MaxInflight:  maxInflight,
		QueueDepth:   queueDepth,
		WALSyncMode:  walSyncMode,
		CompactAfter: compactAfter,
	})
}

// setupServe generates and saves the graph, starts a server over it and
// warms it: the first request loads (and, sharded, splits) the graph,
// and each warmed spec is computed once.
func (r *run) setupServe(cfg serveCfg, persons int) (*serveState, error) {
	st := &serveState{shards: cfg.shards}
	st.data = genSNB(r.sz, persons, r.seed)
	st.specs = cfg.specs(st.data)
	st.refs = make([]specRef, len(st.specs))
	specs := st.specs
	st.dir = r.work.fresh(st.data.name)
	ctx := dataflow.NewContext(dataflow.WithParallelism(serverParallelism))
	defer ctx.Close()
	var err error
	if st.save, err = st.data.save(ctx, st.dir, r.sz.chunkRows); err != nil {
		return nil, err
	}
	if st.srv, err = newServer(st.dir, cfg.cacheBytes, cfg.shards, cfg.compactAfter); err != nil {
		return nil, err
	}
	st.handler = st.srv.Handler()
	c := newClient(0)
	for i := 0; i < cfg.warm && i < len(specs); i++ {
		if out := c.request(nil, 0, st, i, true); out.err != "" {
			return nil, fmt.Errorf("warm-up %s: %s", specs[i].name, out.err)
		}
		sum := sha256.Sum256(c.w.body)
		st.goldenSHA = append(st.goldenSHA, hex.EncodeToString(sum[:]))
	}
	return st, nil
}

// client is one load-generating goroutine's private state.
type client struct {
	rng *rand.Rand
	w   *memWriter

	lat, latTraced, latPlain []time.Duration
	attempted, failed        int
	// cached counts the correct responses the server answered from its
	// result cache (X-TGraph-Cache: hit or patched).
	cached int
}

func newClient(seed int64) *client {
	return &client{rng: rand.New(rand.NewSource(seed)), w: newMemWriter()}
}

// outcome is what one request came to.
type outcome struct {
	took  time.Duration
	cache string // X-TGraph-Cache
	err   string // empty when the response was correct
}

// request sends spec i through the handler and checks the response
// against the spec's reference. checkBody forces the checksum even on
// a hit.
func (c *client) request(tr *tracer, opID int64, st *serveState, i int, checkBody bool) outcome {
	sp := &st.specs[i]
	root := tr.begin(-1, opID, "harness.request")
	defer tr.end(root)

	s := tr.begin(root, opID, "harness.build_request")
	c.w.reset()
	req, err := http.NewRequest(http.MethodPost, sp.path, bytes.NewReader(sp.body))
	tr.end(s)
	if err != nil {
		return outcome{err: err.Error()}
	}
	s = tr.begin(root, opID, "serve.handler")
	start := time.Now()
	st.handler.ServeHTTP(c.w, req)
	out := outcome{took: time.Since(start), cache: c.w.h.Get("X-TGraph-Cache")}
	tr.end(s)

	s = tr.begin(root, opID, "harness.check")
	defer tr.end(s)
	if c.w.code != http.StatusOK {
		out.err = fmt.Sprintf("status %d: %s", c.w.code, strings.TrimSpace(string(c.w.body)))
		return out
	}
	if st.shards > 1 {
		if got, want := c.w.h.Get("X-TGraph-Shards"), fmt.Sprintf("%d/%d", st.shards, st.shards); got != want {
			out.err = fmt.Sprintf("shard coverage %q, want %q", got, want)
			return out
		}
	}
	if st.mutable {
		return out
	}
	var crc uint32
	withCRC := checkBody || out.cache != "hit"
	if withCRC {
		crc = crc32.Checksum(c.w.body, castagnoli)
	}
	st.mu.Lock()
	ref := &st.refs[i]
	switch {
	case !ref.seen && withCRC:
		*ref = specRef{seen: true, n: len(c.w.body), crc: crc}
	case ref.seen && (ref.n != len(c.w.body) || (withCRC && ref.crc != crc)):
		out.err = fmt.Sprintf("%s body differs from the first answer (%d bytes, first %d)", out.cache, len(c.w.body), ref.n)
	}
	st.mu.Unlock()
	return out
}

// runServe drives serve-hot, serve-churn and shard-scatter.
func (r *run) runServe() error {
	cfg := r.serveConfig()
	var st *serveState
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.srv.Drain()
		}
		start := time.Now()
		var err error
		if st, err = r.setupServe(cfg, r.sz.persons); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.srv.Drain()
	r.set("setup_s", medianFloat(setups))
	specs := st.specs

	clients := make([]*client, cfg.clients)
	picks := make([]func() int, cfg.clients)
	for i := range clients {
		clients[i] = newClient(r.seed*31 + int64(i))
		picks[i] = cfg.pick(clients[i].rng, len(specs))
	}

	w := r.beginWindow()
	closedLoop(cfg.clients, w.start.Add(r.window), func(ci, n int) {
		c := clients[ci]
		i := picks[ci]()
		now := time.Now()
		tr := r.tracerAt(now)
		out := c.request(tr, int64(ci)<<40|int64(n), st, i, n%hitCheckEvery == 0)
		c.attempted++
		if out.err != "" {
			c.failed++
			r.problem("%s: %s", specs[i].name, out.err)
			return
		}
		c.lat = append(c.lat, out.took)
		if out.cache == "hit" || out.cache == "patched" {
			c.cached++
		}
		if tr != nil {
			c.latTraced = append(c.latTraced, out.took)
		} else {
			c.latPlain = append(c.latPlain, out.took)
		}
	})
	w.close()

	var lat, latTraced, latPlain []time.Duration
	cached := 0
	for _, c := range clients {
		cached += c.cached
		lat = append(lat, c.lat...)
		latTraced = append(latTraced, c.latTraced...)
		latPlain = append(latPlain, c.latPlain...)
		r.attempted += c.attempted
		r.failed += c.failed
	}
	ops := float64(len(lat))
	r.windowMetrics(w, lat, ops, 0)
	overhead := traceOverheadPct(latTraced, latPlain)
	// The hit path completes a quarter of a million operations in a
	// window, and their latencies would be most of the heap: let them go
	// before measuring what the program retains.
	lat, latTraced, latPlain, clients, picks = nil, nil, nil, nil, nil
	r.set("retained_heap_mb", retainedHeapMiB())
	disk, err := dirBytes(st.dir)
	if err != nil {
		return err
	}
	r.set("disk_bytes_per_state", ratio(float64(disk), float64(st.data.states())))

	// The share of requests the server answered from its result cache,
	// by its own X-TGraph-Cache header. (The qcache.* counters cannot say:
	// the shard workers' partial-result caches count into them too.)
	hitShare := ratio(float64(cached), ops)
	r.samples["hit_share_pct"] = int(100 * hitShare)
	if r.sz == fullSizes {
		// The workloads are defined by where their working set sits
		// relative to the cache; a run on the wrong side measures
		// something else.
		if r.workload == wlHot && hitShare < 0.95 {
			r.problem("serve-hot hit share %.3f, want >= 0.95", hitShare)
		}
		if r.workload == wlChurn && hitShare > 0.25 {
			r.problem("%s hit share %.3f, want <= 0.25", r.workload, hitShare)
		}
	}

	r.golden(r.workload, goldenDigest(specs, st.goldenSHA), st.data)
	if cfg.shards > 1 {
		if runtime.GOMAXPROCS(0) < cfg.shards {
			r.notes = append(r.notes, fmt.Sprintf("GOMAXPROCS %d < %d shards: the legs cannot overlap, so the wall-clock rows say nothing about scatter parallelism", runtime.GOMAXPROCS(0), cfg.shards))
		}
		if err := r.verifyUnsharded(st, cfg); err != nil {
			return err
		}
	}

	if r.traced {
		r.set("datagen.generate_s", st.data.genTime.Seconds())
		r.set("storage.save_ms", msOf(st.save))
		r.windowCounterMetrics(w, ops, 0)
		r.set("qcache.hit_share", hitShare)
		r.set("obs.trace_overhead_pct", overhead)
		r.spanMetrics()
		return r.probes(st.data)
	}
	return nil
}

// verifyUnsharded answers the warm-up specs from an unsharded server
// over the same directory and compares each body with the sharded one.
func (r *run) verifyUnsharded(st *serveState, cfg serveCfg) error {
	srv, err := newServer(st.dir, cfg.cacheBytes, 0, 0)
	if err != nil {
		return err
	}
	defer srv.Drain()
	flat := &serveState{specs: st.specs, srv: srv, handler: srv.Handler(), mutable: true}
	c := newClient(0)
	for i, want := range st.goldenSHA {
		if out := c.request(nil, 0, flat, i, true); out.err != "" {
			r.problem("unsharded %s: %s", st.specs[i].name, out.err)
			continue
		}
		sum := sha256.Sum256(c.w.body)
		if hex.EncodeToString(sum[:]) != want {
			r.problem("%s: sharded body differs from the unsharded one", st.specs[i].name)
		}
	}
	return nil
}

// goldenDigest folds the warm-up bodies' hashes, by spec name, into the
// one value golden.json stores per workload.
func goldenDigest(specs []spec, sums []string) string {
	h := sha256.New()
	for i, sum := range sums {
		fmt.Fprintf(h, "%s %s\n", specs[i].name, sum)
	}
	return hex.EncodeToString(h.Sum(nil))
}
