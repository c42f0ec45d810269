// Package serve is the concurrent query service over loaded TGraphs:
// stdlib net/http handlers for aZoom^T, wZoom^T and operator pipelines
// with JSON specs, backed by the qcache result cache and defended by
// the internal/resil overload substrate.
//
// Request flow: every query request first passes admission control (a
// deadline-aware concurrency limiter with a bounded FIFO wait queue —
// excess load is shed with 429 and a Retry-After header instead of
// queueing unboundedly). The admitted request's body (at most 64 KiB,
// else 413) is read into a pooled buffer and looked up, by the SHA-256
// of endpoint and body, in the spec index: a body seen before maps
// straight to its graph, canonical chain and range tag, so a repeat
// request neither decodes JSON nor parses a step. A new body is
// decoded (unknown fields and anything after the JSON value are 400s),
// parsed, canonicalised and indexed.
//
// Each served graph publishes its state — graph, base stamp, shard
// coordinator, tag versions, stale mark — as one immutable value that
// load, reload, append and compaction replace whole; a hit loads it
// once and takes no lock, reads no file and consults no breaker. The
// server is its directories' only writer: the first request loads a
// graph, and only POST /v1/graphs/{name}/reload adopts a change made
// from outside, behind a per-graph circuit breaker. A failed reload
// marks the graph stale until one succeeds: it keeps answering
// byte-identically, with X-TGraph-Degraded: stale-graph (counted in
// serve.degraded_requests), and refuses appends. The cache key is
// "<graph>|<rangeTag>|v<tagVersion>|" + qcache.Key(baseStamp, chain),
// and the cache's singleflight DoCtx either returns resident response
// bytes (byte-identical to the cold run, outcome in the X-TGraph-Cache
// header) or — on a miss, which re-parses the pooled body — computes
// them on a fresh per-request dataflow.Context with its own deadline
// over a rebound view of the shared graph (core.Rebind), so concurrent
// requests never share a cancellation scope; a [range, azoom] miss clips
// the whole-graph aZoom body instead (pullUp). A sharer whose client
// disconnects stops waiting immediately; the leader finishes and its
// result is cached. Handler panics are converted to typed 500s by a
// recovery middleware instead of killing the process.
//
// Every graph is served as a VE value (the representations stay in
// core for the batch pipelines and the "switch" step). Live ingestion:
// POST /v1/append (a body of at most 8 MiB, else 413) appends
// vertex/edge deltas to the graph directory's write-ahead log
// (internal/storage/wal) and acks only after they are fsynced — a 200
// means the records survive kill -9. The append publishes a new VE with
// the deltas folded in (no reload from disk) and, on a sharded handle,
// a coordinator split from it; nothing a reader holds changes.
// Invalidation is surgical: the cache key's <rangeTag> segment names
// the time range the result declared (via "range" pipeline steps;
// "full" when it declared none), the server keeps a tag → interval
// index per graph, and an append invalidates only the tags its deltas' time span
// overlaps. Results over windows the append cannot have changed stay
// resident — that is the hit-rate-retention property the ingest bench
// measures. Full-graph chains go one better: when a single azoom/wzoom
// chain with no range restriction is queried, the server registers an
// incrementally maintained view for it (internal/incr), and each append
// routes its acked deltas into the view and patches the chain's cache
// entry in place under the bumped version key (qcache.Cache.Patch) — the next
// query answers X-TGraph-Cache: patched with a body byte-identical to a
// cold recompute. Chains incremental maintenance cannot patch soundly
// (change-based windows, custom aggregates) stay on the
// invalidate path, and any view failure degrades its chain back to
// invalidation — patching only ever improves hit rate, never
// correctness. The server owns the directory's WAL exclusively while
// serving it (single writer); offline appends (tgraph-import -append)
// must not run against a live server. After Config.CompactAfter
// appended records, the server folds the WAL tail into a fresh
// columnar epoch (storage.Compact) inline, which resets the graph's
// base stamp without reloading. The epoch holds only the flat layout
// the server loads; an offline tgraph-cli -compact writes the nested
// one again.
//
// The server reports to the process-wide obs registry:
//
//	serve.requests          requests accepted (counter)
//	serve.errors            requests answered with an error (counter)
//	serve.computations      cold zoom executions, cache misses (counter)
//	serve.shed_requests     requests shed by admission control (counter)
//	serve.degraded_requests requests served from a stale graph (counter)
//	serve.panics_recovered  handler panics converted to 500s (counter)
//	serve.reload_retries    reload retries granted by the budget (counter)
//	serve.appends           append requests acked durable (counter)
//	serve.append_records    delta records acked durable (counter)
//	serve.cache_invalidated cached results dropped by append invalidation (counter)
//	serve.compactions       inline epoch compactions triggered by appends (counter)
//	serve.range_pullups     [range, azoom] misses answered by clipping the cached whole-graph result (counter)
//	serve.range_pullup_fallbacks [range, azoom] misses the clip declined, computed as before (counter)
//	serve.inflight          requests currently executing (gauge)
//	serve.latency.<op>      request latency per endpoint (histogram)
//
// plus the resil.admit.* / resil.breaker.* metrics of the embedded
// limiter and per-graph breakers (gauge resil.breaker.state.<graph>),
// the incr.* counters/histogram of view maintenance, and qcache.patches
// for cache bodies refreshed in place.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/resil"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// StatusClientClosedRequest is the nginx-convention 499 status the
// service answers when the client's context was cancelled before the
// response was ready: not the server's failure, not the client's
// success.
const StatusClientClosedRequest = 499

// GraphConfig names one on-disk graph directory to serve.
type GraphConfig struct {
	// Name is the wire name requests refer to.
	Name string
	// Dir is the storage directory (as written by storage.SaveGraph).
	Dir string
}

// Config configures a Server.
type Config struct {
	// Graphs are the served graphs. Names must be unique and non-empty.
	Graphs []GraphConfig
	// CacheBytes bounds the result cache; <= 0 disables residency
	// (requests still deduplicate in flight).
	CacheBytes int64
	// Timeout bounds each cold query computation; <= 0 means none.
	Timeout time.Duration
	// Parallelism is the per-request dataflow parallelism; < 1 selects
	// runtime.NumCPU().
	Parallelism int
	// ScanParallelism is the storage scan engine's decode worker count
	// used when (re)loading a graph directory (see
	// storage.ScanOptions.Parallelism); <= 0 selects GOMAXPROCS.
	ScanParallelism int
	// Shards splits each graph into this many in-process shard workers
	// at load time (vertex-cut partitioning, see internal/shard) and
	// serves queries scatter-gather; <= 1 serves unsharded. The first
	// shard failure fails the request with a typed dataflow.JobError.
	Shards int
	// MaxInflight bounds concurrently executing query requests
	// (admission control); <= 0 disables the limiter and every request
	// is admitted, preserving the unbounded pre-resilience behaviour.
	MaxInflight int
	// QueueDepth bounds the admission controller's FIFO wait queue;
	// only meaningful when MaxInflight > 0. <= 0 means no queue: the
	// request after the MaxInflight-th is shed immediately.
	QueueDepth int
	// BreakerThreshold is the number of consecutive load/reload failures
	// that trips a graph's breaker open; < 1 selects 3.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped reload breaker stays open
	// before admitting a half-open probe; <= 0 selects 2s.
	BreakerCooldown time.Duration
	// WALSyncMode names the write-ahead log's fsync policy for appends.
	// The only one is "each" (also the meaning of ""): every append
	// fsyncs before it is acked. Any other value fails New.
	WALSyncMode string
	// CompactAfter triggers an inline epoch compaction (folding the WAL
	// tail into new columnar files and retiring its segments) once a
	// graph has accumulated this many appended records; <= 0 disables
	// automatic compaction (compact offline with tgraph-cli -compact).
	CompactAfter int
	// FaultHook, when non-nil, is called at the serve.* fault-injection
	// sites ("serve.reload" once per load or reload attempt, retries
	// included; "serve.handler" at the start of every query execution). A
	// returned error fails the guarded operation; the hook may panic to
	// simulate a handler crash. Wire it to faults.Injector.ServeHook in
	// chaos tests; leave nil in production.
	FaultHook func(site string) error
	// WALFaultHook, when non-nil, is passed to the write-ahead log as
	// its crash-injection hook (storage.wal.* sites) and to compaction
	// (storage.wal.compact, storage.write.*). Wire it to
	// faults.Injector.WriteHook in chaos tests; leave nil in
	// production.
	WALFaultHook func(site string) error

	// breakerNow overrides the reload breakers' clock so tests can
	// drive open → half-open transitions deterministically.
	breakerNow func() time.Time
}

// graphHandle is one served graph: the state it publishes to requests,
// the write-ahead log it owns as the directory's single writer, the
// registry of incrementally maintained views, and the resilience state
// guarding its reload path.
type graphHandle struct {
	name string
	dir  string

	breaker *resil.Breaker
	budget  *resil.RetryBudget
	hook    func(site string) error
	retries *obs.Counter

	walOpts      wal.Options
	compactAfter int
	// reclaim holds the files a compaction replaces or retires, so no
	// append waits for their blocks to be freed (storage.Reclaimer).
	reclaim *storage.Reclaimer

	// Sharded serving (shards > 1): the graph and WAL work exactly as
	// unsharded (durability, compaction, one atomic log append per
	// batch), and each load and append additionally splits the graph
	// into a fresh coordinator that answers the queries (split).
	shards    int
	shardOpts shard.Options
	// shardsHeader is the X-TGraph-Shards value, "n/n".
	shardsHeader []string

	// state is what requests answer from. It is replaced whole, never
	// modified, and only under mu.
	state atomic.Pointer[servedState]

	// mu serialises the writers — reload, append, compaction and the
	// registration of a new range tag — and guards the fields below. A
	// cache hit or a /v1/graphs listing never takes it.
	mu  sync.Mutex
	log *wal.Log
	// views maps a canonical chain to its incrementally maintained zoom
	// view slot. Slots are registered when a viewable chain (see
	// chain.viewable) is first computed on a flat handle, built lazily
	// at the next append, and used to patch the chain's cache entry in
	// place instead of leaving it to cold recomputation.
	views map[string]*viewSlot
}

// servedState is one published version of a served graph: everything a
// request reads, in one immutable value, so the graph it computes from,
// the stamp and tag version it keys the result under and the
// coordinator that scatters it always belong together. Writers copy
// the current value, change the copy and publish it with one Store;
// neither the graph nor the coordinator is modified after it.
type servedState struct {
	// graph is the loaded graph with every acked append applied.
	graph *core.VE
	// stamp is storage.BaseStamp at load or compaction time.
	stamp string
	// stale marks a state the last reload failed to refresh (see reload).
	stale bool
	// coord answers the queries when serving sharded, split from graph;
	// nil otherwise.
	coord *shard.Coordinator
	// tags maps each served rangeTag to the time interval results under
	// it depend on (the zero interval means "everything": the "full"
	// tag, which every state holds from load on) and its current key
	// version. An append bumps exactly the overlapping tags.
	tags map[string]depEntry
	// walSeq is the highest durable log sequence; appended counts the
	// records logged since the last compaction, which triggers at
	// Config.CompactAfter.
	walSeq   uint64
	appended int
}

// viewSlot is one registered chain — its one zoom step — the handle
// maintains a materialized view for. view is nil until the first
// append after registration (the view is built from the post-append
// graph, so no Apply is needed that round) and reset to nil when an
// Apply or encode fails — the view falls behind the graph, and dropping
// it is always safe because the version bump already invalidated the
// stale cache entry. disabled marks chains incremental maintenance
// refuses (incr.ErrUnsupported, change-sensitive windows); they stay on
// the invalidate path for good.
type viewSlot struct {
	step     step
	view     incr.View
	disabled bool
}

// depEntry is one rangeTag's invalidation state. version is baked into
// the cache key ("…|<tag>|v<version>|…") and bumped on every append
// that overlaps the interval: a query racing an append may still
// insert a result computed from the pre-append graph, but it inserts
// under the old version's key, which no later lookup uses — the bump,
// not the prefix sweep, is what makes invalidation correct; the sweep
// just reclaims bytes eagerly. Entries are never deleted while the
// stamp is unchanged (a deleted tag re-created at version 0 would
// resurrect pre-append results).
type depEntry struct {
	iv      temporal.Interval
	version uint64
}

// appendKeyPrefix appends "<graph>|<tag>|v<version>|" to dst: the prefix
// of every cache key under one tag version, which an append retiring
// the version sweeps.
func appendKeyPrefix(dst []byte, graph, tag string, version uint64) []byte {
	dst = append(append(append(dst, graph...), '|'), tag...)
	return append(strconv.AppendUint(append(dst, "|v"...), version, 10), '|')
}

// appendCacheKey appends the key a chain's result is cached under — the
// tag version's prefix, then qcache.Key(stamp, canon) — to dst. A query
// reads and a view patch writes the key it builds.
func appendCacheKey(dst []byte, graph, tag string, version uint64, stamp, canon string) []byte {
	return qcache.AppendKey(appendKeyPrefix(dst, graph, tag, version), stamp, canon)
}

// ensure returns the state to answer from: the published one, read
// with one atomic load — no file, no breaker, no lock. Only a request
// that finds nothing published yet loads the graph, through reload.
func (h *graphHandle) ensure(reqCtx context.Context, cache *qcache.Cache, parallelism, scanParallelism int) (*servedState, error) {
	if st := h.state.Load(); st != nil {
		return st, nil
	}
	return h.reload(reqCtx, cache, parallelism, scanParallelism)
}

// reload runs check behind the graph's circuit breaker, with one
// immediate retry of a transient failure when the shared retry budget
// allows it; reqCtx scopes the load's chunk decodes. When it fails, or
// the open breaker refuses to try, the published state is republished
// marked stale: it keeps answering until a reload succeeds.
func (h *graphHandle) reload(reqCtx context.Context, cache *qcache.Cache, parallelism, scanParallelism int) (*servedState, error) {
	var st *servedState
	err := h.breaker.Do(func() error {
		var err error
		st, err = h.check(reqCtx, cache, parallelism, scanParallelism)
		if err != nil && dataflow.IsTransient(err) && h.budget.Allow() {
			h.retries.Add(1)
			st, err = h.check(reqCtx, cache, parallelism, scanParallelism)
		}
		if err == nil {
			h.budget.Deposit()
		}
		return err
	})
	if err != nil {
		h.mu.Lock()
		if cur := h.state.Load(); cur != nil {
			h.state.Store(cur.marked(true))
		}
		h.mu.Unlock()
	}
	return st, err
}

// check is one load or reload attempt. It reads and parses MANIFEST
// (storage.BaseStamp; a directory without one gets a layout-file stamp)
// and reloads when the stamp moved or nothing is published yet; an
// unchanged stamp keeps the published graph and clears its stale mark.
func (h *graphHandle) check(reqCtx context.Context, cache *qcache.Cache, parallelism, scanParallelism int) (*servedState, error) {
	if h.hook != nil {
		if err := h.hook("serve.reload"); err != nil {
			return nil, err
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	stamp, err := storage.BaseStamp(h.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: stamp %s: %w", h.name, err)
	}
	if cur := h.state.Load(); cur != nil && cur.stamp == stamp {
		st := cur.marked(false)
		h.state.Store(st)
		return st, nil
	}
	return h.reloadLocked(reqCtx, cache, parallelism, scanParallelism, stamp)
}

// marked returns a copy of st with its stale mark set to stale.
func (st servedState) marked(stale bool) *servedState {
	st.stale = stale
	return &st
}

// reloadLocked loads the directory and publishes it as the new state,
// then sweeps the graph's cache entries, keyed under the old stamp: the
// sweep reclaims their bytes. A failed load leaves the published state
// and its entries as they are. Caller holds h.mu.
func (h *graphHandle) reloadLocked(reqCtx context.Context, cache *qcache.Cache, parallelism, scanParallelism int, stamp string) (*servedState, error) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(parallelism))
	// Load replays any WAL records the manifest does not subsume, so the
	// view includes every previously acked append.
	loaded, _, err := storage.Load(ctx, h.dir, storage.LoadOptions{
		Rep:  core.RepVE,
		Scan: storage.ScanOptions{Parallelism: scanParallelism, Ctx: reqCtx},
	})
	if err != nil {
		return nil, fmt.Errorf("serve: load %s: %w", h.name, err)
	}
	g := loaded.(*core.VE) // what Load builds for RepVE
	if h.log == nil {
		// Take the directory's single-writer role: recovery (torn-tail
		// truncation) already ran if needed, and appends go here.
		l, _, err := wal.Open(h.dir, h.walOpts)
		if err != nil {
			return nil, fmt.Errorf("serve: wal %s: %w", h.name, err)
		}
		h.log = l
	}
	ns := &servedState{graph: g, coord: h.split(g), stamp: stamp, walSeq: h.log.LastSeq(), tags: map[string]depEntry{"full": {}}}
	if cur := h.state.Load(); cur != nil {
		ns.appended = cur.appended
	}
	// Materialized views were built over the replaced graph; drop them
	// and let the next append rebuild from the fresh load.
	h.dropViewsLocked()
	h.state.Store(ns)
	cache.InvalidatePrefix(h.name + "|")
	return ns, nil
}

// split returns the coordinator a sharded handle serves g through: a
// fresh split of g's states, never one modified in place, so a reader
// still holding the replaced state scatters over the shards of its own
// graph. The replaced coordinator is not closed: it holds nothing but
// memory, and such a reader may still use it. nil when unsharded.
func (h *graphHandle) split(g *core.VE) *shard.Coordinator {
	if h.shards <= 1 {
		return nil
	}
	return shard.NewFromStates(g.VertexStates(), g.EdgeStates(), shard.VertexCut{}, h.shards, h.shardOpts)
}

// version returns the key version of tag to answer st's request under.
// A tag st does not know yet is registered at version 0 and published
// under h.mu; the state returned is then the newly published one, so
// the graph, stamp and version a request keys its result under still
// come from one value.
func (h *graphHandle) version(st *servedState, tag string, dep temporal.Interval) (*servedState, uint64) {
	if e, ok := st.tags[tag]; ok {
		return st, e.version
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.state.Load()
	if e, ok := cur.tags[tag]; ok {
		return cur, e.version
	}
	ns := *cur
	ns.tags = make(map[string]depEntry, len(cur.tags)+1)
	maps.Copy(ns.tags, cur.tags)
	ns.tags[tag] = depEntry{iv: dep}
	h.state.Store(&ns)
	return &ns, 0
}

// append logs the deltas durably, builds the graph with them folded in,
// and surgically invalidates the overlapping cache tags. It runs under
// h.mu so appends serialise with reloads and with each other. The
// order is what keeps readers consistent without the lock: WAL append
// → new graph (and its split) → bumped versions → views patched
// under the new versions' keys, which no reader uses yet → one Store
// publishing graph and versions together → sweep of the retired
// versions' keys. A reader holding the previous state computes from
// the old graph and inserts under the old versions, which no later
// lookup uses; a reader loading the new state sees the appended records
// and the patched views; and the Store precedes the ack, so every read
// issued after it does. compacted reports whether an inline
// epoch compaction ran; compactErr carries its failure without
// un-acking the append (the records are durable either way —
// compaction retries at the next trigger, or offline via tgraph-cli
// -compact).
func (h *graphHandle) append(cache *qcache.Cache, parallelism int, ds []wal.Delta) (resp AppendResponse, compacted bool, compactErr, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.state.Load()
	if h.log == nil || cur == nil {
		return AppendResponse{}, false, nil, fmt.Errorf("serve: graph %q not loaded", h.name)
	}
	last, err := h.log.Append(ds...)
	if err != nil {
		return AppendResponse{}, false, nil, fmt.Errorf("serve: append %s: %w", h.name, err)
	}
	first := last - uint64(len(ds)) + 1
	ns := *cur
	ns.walSeq = last
	ns.graph = applyDeltas(cur.graph, ds)
	ns.coord = h.split(ns.graph)
	var retired []string
	ns.tags, retired = h.bumpTags(cur.tags, deltaSpan(ds))
	// Incremental view maintenance: patch the registered chains' cache
	// entries under the bumped version before publishing it, so the
	// first query that loads the new state hits a fresh body
	// (X-TGraph-Cache: patched) instead of paying a cold recompute.
	patched := h.maintainViewsLocked(cache, &ns, ds)
	ns.appended += len(ds)
	h.state.Store(&ns)
	invalidated := 0
	for _, prefix := range retired {
		invalidated += cache.InvalidatePrefix(prefix)
	}
	resp = AppendResponse{FirstSeq: first, LastSeq: last, Invalidated: invalidated, Patched: patched}
	if h.compactAfter > 0 && ns.appended >= h.compactAfter {
		if cerr := h.compactLocked(cache, parallelism); cerr != nil {
			// Leave the appended count as is so the next append retries.
			return resp, false, cerr, nil
		}
		return resp, true, nil, nil
	}
	return resp, false, nil, nil
}

// bumpTags returns a copy of tags in which every tag the append span
// overlaps — plus "full" and whole-graph entries, which depend on
// everything — has moved to its next version, and the key prefixes of
// the versions it retired.
// The version bump is the correctness mechanism; sweeping the retired
// prefixes only reclaims the dead entries' bytes. Caller holds h.mu.
func (h *graphHandle) bumpTags(tags map[string]depEntry, span temporal.Interval) (map[string]depEntry, []string) {
	out := make(map[string]depEntry, len(tags)+1)
	var retired []string
	for tag, e := range tags {
		if tag == "full" || e.iv.IsEmpty() || e.iv.Overlaps(span) {
			retired = append(retired, string(appendKeyPrefix(nil, h.name, tag, e.version)))
			e.version++
		}
		out[tag] = e
	}
	return out, retired
}

// applyDeltas returns a new VE with the deltas folded into g's states,
// mirroring what a storage.Load replay would produce; g is not changed.
// Each relation is copied once, into a slice with room for the deltas.
func applyDeltas(g *core.VE, ds []wal.Delta) *core.VE {
	vs := appendParts(make([]core.VertexTuple, 0, g.Vertices().Count()+len(ds)), g.Vertices().Partitions())
	es := appendParts(make([]core.EdgeTuple, 0, g.Edges().Count()+len(ds)), g.Edges().Partitions())
	for _, d := range ds {
		if vt, ok := d.VertexTuple(); ok {
			vs = append(vs, vt)
		} else if et, ok := d.EdgeTuple(); ok {
			es = append(es, et)
		}
	}
	return core.NewVE(g.Context(), vs, es)
}

// appendParts appends every partition's records to dst.
func appendParts[T any](dst []T, parts [][]T) []T {
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// registerView registers a materialized-view slot for a viewable chain
// (chain.viewable). Sharded handles are excluded: their misses are
// computed by the coordinator from the shard workers' states, and a
// view would be a second, flat copy of the zoom state every append had
// to maintain. It runs on the miss path only: a chain gets its slot
// when it is first computed, and slots are never removed.
func (h *graphHandle) registerView(c chain, canon string) {
	if h.shards > 1 || !c.viewable() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.views[canon]; ok {
		return
	}
	if h.views == nil {
		h.views = make(map[string]*viewSlot)
	}
	h.views[canon] = &viewSlot{step: c[0]}
}

// dropViewsLocked discards every built view (keeping registrations and
// disabled marks) — called when a reload replaces the graph the views
// were built over. Caller holds h.mu.
func (h *graphHandle) dropViewsLocked() {
	for _, sl := range h.views {
		sl.view = nil
	}
}

// maintainViewsLocked advances every registered view past ds and
// patches the corresponding cache entries under st's (just bumped)
// "full"-tag version. A slot without a view yet is built from st's
// graph — which already includes ds, so no Apply is needed this round.
// Any failure (unsupported spec, Apply error) degrades
// that slot to the invalidate path: correctness never depends on a
// patch landing, only hit-rate does. Caller holds h.mu; st is the state
// it is about to publish, so no reader uses the patched keys yet.
// Returns how many entries were patched.
func (h *graphHandle) maintainViewsLocked(cache *qcache.Cache, st *servedState, ds []wal.Delta) int {
	if len(h.views) == 0 {
		return 0
	}
	patched := 0
	for canon, sl := range h.views {
		if sl.disabled {
			continue
		}
		if sl.view == nil {
			v, err := h.buildView(sl, st.graph)
			if err != nil {
				sl.disabled = true
				continue
			}
			sl.view = v
		} else if _, err := sl.view.Apply(ds); err != nil {
			sl.view = nil
			continue
		}
		body := encodeView(sl.view)
		key := string(appendCacheKey(nil, h.name, "full", st.tags["full"].version, st.stamp, canon))
		if cache.Patch(key, body, int64(len(body))) {
			patched++
		}
	}
	return patched
}

// buildView constructs the slot's view over g. Change-sensitive window
// specs are refused: their window relation can restructure on any
// delta — those chains stay on the invalidate path.
func (h *graphHandle) buildView(sl *viewSlot, g core.TGraph) (incr.View, error) {
	opts := incr.Options{Hook: h.hook}
	if sl.step.az != nil {
		return incr.NewAZoomView(g, *sl.step.az, opts)
	}
	v, err := incr.NewWZoomView(g, *sl.step.wz, opts)
	if err != nil {
		return nil, err
	}
	if v.ChangeSensitive() {
		return nil, incr.ErrUnsupported
	}
	return v, nil
}

// encodeView renders a view's result exactly as the cold path renders
// the chain's, so a patched body is byte-identical to the recompute it
// replaces: the view's flat states are sorted and folded straight into
// the encoder, as building a VE from them and coalescing it would fold
// them per entity, under the same lifetime.
func encodeView(v incr.View) []byte {
	vs, es := v.Result()
	vs, es, life := core.SortedCoalesced(vs, es)
	return encodeStates(core.RepVE.String(), life, vs, es)
}

// compactLocked folds the WAL tail into a fresh columnar epoch and
// publishes the stamp it committed, without reloading: the in-memory
// graph already includes every folded record. Caller holds h.mu.
func (h *graphHandle) compactLocked(cache *qcache.Cache, parallelism int) error {
	ctx := dataflow.NewContext(dataflow.WithParallelism(parallelism))
	defer ctx.Close()
	res, err := storage.Compact(ctx, h.dir, h.log, storage.SaveOptions{
		SkipNested: true,
		FaultHook:  storage.WriteHook(h.walOpts.Hook),
		Reclaim:    h.reclaim,
	})
	if err != nil {
		return err
	}
	// The version reset is safe because the stamp changed with the new
	// epoch; entries keyed under the old stamp can never hit again, and
	// the sweep reclaims their bytes eagerly.
	ns := *h.state.Load()
	ns.stamp, ns.tags, ns.appended = res.Stamp, map[string]depEntry{"full": {}}, 0
	h.state.Store(&ns)
	cache.InvalidatePrefix(h.name + "|")
	return nil
}

// Server is the query service. Construct with New; serve its Handler;
// stop accepting and wait for in-flight requests with Drain (or
// DrainWithin to bound the wait).
type Server struct {
	mux             *http.ServeMux
	cache           *qcache.Cache
	graphs          map[string]*graphHandle
	names           []string
	timeout         time.Duration
	parallelism     int
	scanParallelism int
	limiter         *resil.Limiter // nil when MaxInflight <= 0
	hook            func(site string) error
	specs           *specIndex // nil when CacheBytes <= 0: nothing could hit

	// The non-query endpoints (query endpoints live in their handlers).
	appendEP, graphsEP, reloadEP *endpoint

	draining atomic.Bool
	wg       sync.WaitGroup

	requests        *obs.Counter
	errorsC         *obs.Counter
	computations    *obs.Counter
	shed            *obs.Counter
	degraded        *obs.Counter
	panicsC         *obs.Counter
	appends         *obs.Counter
	appendRecords   *obs.Counter
	invalidatedC    *obs.Counter
	compactions     *obs.Counter
	pullups         *obs.Counter
	pullupFallbacks *obs.Counter
	inflight        *obs.Gauge
}

// New builds a Server from cfg. Graphs are loaded lazily on first
// request; New only validates the configuration shape.
func New(cfg Config) (*Server, error) {
	if len(cfg.Graphs) == 0 {
		return nil, errors.New("serve: no graphs configured")
	}
	r := obs.Default()
	s := &Server{
		mux:             http.NewServeMux(),
		cache:           qcache.New(cfg.CacheBytes),
		graphs:          make(map[string]*graphHandle, len(cfg.Graphs)),
		timeout:         cfg.Timeout,
		parallelism:     cfg.Parallelism,
		scanParallelism: cfg.ScanParallelism,
		hook:            cfg.FaultHook,

		requests:        r.Counter("serve.requests"),
		errorsC:         r.Counter("serve.errors"),
		computations:    r.Counter("serve.computations"),
		shed:            r.Counter("serve.shed_requests"),
		degraded:        r.Counter("serve.degraded_requests"),
		panicsC:         r.Counter("serve.panics_recovered"),
		appends:         r.Counter("serve.appends"),
		appendRecords:   r.Counter("serve.append_records"),
		invalidatedC:    r.Counter("serve.cache_invalidated"),
		compactions:     r.Counter("serve.compactions"),
		pullups:         r.Counter("serve.range_pullups"),
		pullupFallbacks: r.Counter("serve.range_pullup_fallbacks"),
		inflight:        r.Gauge("serve.inflight"),
	}
	if cfg.WALSyncMode != "" && cfg.WALSyncMode != "each" {
		return nil, fmt.Errorf("serve: unknown WAL sync mode %q (the only one is each)", cfg.WALSyncMode)
	}
	walOpts := wal.Options{Hook: cfg.WALFaultHook}
	if cfg.MaxInflight > 0 {
		s.limiter = resil.NewLimiter(cfg.MaxInflight, cfg.QueueDepth)
	}
	budget := resil.NewRetryBudget(0.1, 10)
	for _, gc := range cfg.Graphs {
		if gc.Name == "" || gc.Dir == "" {
			return nil, fmt.Errorf("serve: graph needs name and dir, got %q=%q", gc.Name, gc.Dir)
		}
		if _, dup := s.graphs[gc.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate graph name %q", gc.Name)
		}
		h := &graphHandle{
			name: gc.Name, dir: gc.Dir,
			breaker: resil.NewBreaker(resil.BreakerConfig{
				Name:      gc.Name,
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
				Now:       cfg.breakerNow,
			}),
			budget:       budget,
			hook:         cfg.FaultHook,
			retries:      r.Counter("serve.reload_retries"),
			walOpts:      walOpts,
			compactAfter: cfg.CompactAfter,
			reclaim:      new(storage.Reclaimer),
		}
		h.walOpts.BeforeRetire = h.reclaim.Hold
		if cfg.Shards > 1 {
			h.shards = cfg.Shards
			h.shardOpts = shard.Options{Parallelism: cfg.Parallelism, FaultHook: cfg.FaultHook}
			h.shardsHeader = []string{fmt.Sprintf("%d/%d", cfg.Shards, cfg.Shards)}
		}
		s.graphs[gc.Name] = h
		s.names = append(s.names, gc.Name)
	}
	sort.Strings(s.names)
	if cfg.CacheBytes > 0 {
		s.specs = &specIndex{m: make(map[[sha256.Size]byte]specEntry)}
	}
	ep := func(name string) *endpoint {
		return &endpoint{name: name, span: "serve." + name, hist: r.Histogram("serve.latency." + name)}
	}
	s.appendEP, s.graphsEP, s.reloadEP = ep("append"), ep("graphs"), ep("reload")

	s.mux.HandleFunc("POST /v1/azoom", s.handleQuery(ep("azoom")))
	s.mux.HandleFunc("POST /v1/wzoom", s.handleQuery(ep("wzoom")))
	s.mux.HandleFunc("POST /v1/pipeline", s.handleQuery(ep("pipeline")))
	s.mux.HandleFunc("POST /v1/append", s.handleAppend)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("POST /v1/graphs/{name}/reload", s.handleReload)
	s.mux.HandleFunc("GET /livez", s.handleLive)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler: the route mux wrapped in
// the panic-recovery middleware, so a panicking handler answers a typed
// 500 (counted in serve.panics_recovered) instead of killing the
// process.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel, by convention compared directly
				panic(rec)
			}
			s.panicsC.Add(1)
			// Best-effort: if the handler already wrote headers this is a
			// no-op on the status line, but the connection still closes
			// with the request completed rather than the process dead.
			s.fail(w, http.StatusInternalServerError, fmt.Errorf("serve: handler panic: %v", rec))
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Cache exposes the result cache (for tests and embedding callers).
func (s *Server) Cache() *qcache.Cache { return s.cache }

// Drain stops admitting requests (they get 503) and blocks until every
// in-flight request has completed. Call before process exit, after
// http.Server.Shutdown has stopped accepting connections.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.wg.Wait()
	s.closeLogs()
}

// closeLogs releases the per-graph write-ahead logs the server owns
// and the shard coordinators.
func (s *Server) closeLogs() {
	for _, name := range s.names {
		h := s.graphs[name]
		h.mu.Lock()
		if h.log != nil {
			h.log.Close()
			h.log = nil
		}
		h.reclaim.Close()
		if st := h.state.Load(); st != nil && st.coord != nil {
			st.coord.Close()
			ns := *st
			ns.coord = nil
			h.state.Store(&ns)
		}
		h.mu.Unlock()
	}
}

// DrainWithin is Drain bounded by a deadline: it stops admitting
// requests, waits up to d for the in-flight ones, and reports an error
// naming the number of requests still running if they outlive the
// deadline (the caller typically exits non-zero so the supervisor knows
// the shutdown was not clean).
func (s *Server) DrainWithin(d time.Duration) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeLogs()
		return nil
	case <-time.After(d):
		return fmt.Errorf("serve: drain deadline %v exceeded with %d request(s) still in flight",
			d, s.inflight.Value())
	}
}

// errorJSON is the error response body. Kind is a stable,
// machine-readable classification ("shed", "timeout", "canceled",
// "degraded-unavailable", "panic", "bad-request", …); Dataflow carries
// the typed dataflow.JobError detail when the failure came from the
// execution engine.
type errorJSON struct {
	Error    string        `json:"error"`
	Kind     string        `json:"kind,omitempty"`
	Dataflow *jobErrorJSON `json:"dataflow,omitempty"`
}

// jobErrorJSON is the wire form of a *dataflow.JobError: which stage
// failed, on which partitions, and whether cancellation cut the job
// short.
type jobErrorJSON struct {
	Stage            string `json:"stage,omitempty"`
	FailedPartitions []int  `json:"failedPartitions,omitempty"`
	TasksSkipped     int    `json:"tasksSkipped,omitempty"`
	Cancelled        bool   `json:"cancelled,omitempty"`
}

// kindFor classifies an error for the JSON body.
func kindFor(code int, err error) string {
	switch {
	case errors.Is(err, resil.ErrSaturated), errors.Is(err, resil.ErrExpired):
		return "shed"
	case errors.Is(err, resil.ErrOpen):
		return "breaker-open"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, storage.ErrIncompleteSave):
		return "reloading"
	case errors.Is(err, errDraining):
		return "draining"
	}
	switch code {
	case http.StatusBadRequest:
		return "bad-request"
	case http.StatusRequestEntityTooLarge:
		return "too-large"
	case http.StatusNotFound:
		return "not-found"
	case http.StatusTooManyRequests:
		return "shed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInternalServerError:
		return "internal"
	}
	return ""
}

// retryAfter derives the Retry-After hint shed/unavailable responses
// carry from the admission limiter's EWMA service-time estimate scaled
// by current queue depth, so clients back off proportionally to actual
// pressure instead of a hardcoded second. Falls back to "1" when no
// limiter is configured or nothing has been observed yet.
func (s *Server) retryAfter() string {
	if s.limiter == nil {
		return "1"
	}
	return strconv.Itoa(s.limiter.RetryAfterSeconds())
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.errorsC.Add(1)
	body := errorJSON{Error: err.Error(), Kind: kindFor(code, err)}
	var je *dataflow.JobError
	if errors.As(err, &je) {
		body.Dataflow = &jobErrorJSON{
			Stage:            je.Stage,
			FailedPartitions: je.FailedPartitions(),
			TasksSkipped:     je.TasksSkipped,
			Cancelled:        je.Cancel != nil,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// statusForRunError maps a query execution failure to its status code:
// deadline expiry is the gateway's fault (504), client cancellation is
// the client's (499), a mid-save reload race may clear momentarily
// (503), everything else is a 500.
func statusForRunError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, storage.ErrIncompleteSave):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errDraining refuses requests once Drain has started.
var errDraining = errors.New("serve: server draining")

// endpoint is one route's request bookkeeping, resolved once in New:
// its name (which, on the query endpoints, selects parseBody's request
// shape), its span name and its latency histogram.
type endpoint struct {
	name string
	span string
	hist *obs.Histogram
}

// admission is one admitted request's bookkeeping, which done closes.
type admission struct {
	s       *Server
	ep      *endpoint
	span    *obs.Span
	start   time.Time
	release func() // the limiter's slot, if one was taken
}

// done records the request's latency, ends its span and releases what
// admit took.
func (a admission) done() {
	a.ep.hist.Observe(time.Since(a.start))
	a.span.End()
	a.s.inflight.Add(-1)
	a.release()
	a.s.wg.Done()
}

// admit performs the shared request bookkeeping: drain refusal,
// admission control (when limited), counters, span and latency
// histogram. It returns false if the request was already answered
// (drained or shed); otherwise the caller must call the admission's
// done when finished.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ep *endpoint, limited bool) (admission, bool) {
	// Register before re-checking the flag: Drain sets the flag and then
	// waits the group, so a request seeing draining==false here is
	// either already registered or answered 503.
	s.wg.Add(1)
	if s.draining.Load() {
		s.wg.Done()
		s.fail(w, http.StatusServiceUnavailable, errDraining)
		return admission{}, false
	}
	a := admission{s: s, ep: ep, release: func() {}}
	if limited && s.limiter != nil {
		rel, err := s.limiter.Acquire(r.Context())
		if err != nil {
			s.wg.Done()
			s.shed.Add(1)
			// Client-side expiry while queued is the client's outcome, not
			// an overload signal — but either way the request was not
			// admitted, so answer with shed semantics: back off and retry.
			w.Header().Set("Retry-After", s.retryAfter())
			s.fail(w, http.StatusTooManyRequests, fmt.Errorf("serve: overloaded: %w", err))
			return admission{}, false
		}
		a.release = rel
	}
	s.requests.Add(1)
	s.inflight.Add(1)
	a.span, a.start = obs.StartSpan(ep.span), time.Now()
	return a, true
}

// maxQueryBody bounds a query request's body; specs are well under
// 1 KiB.
const maxQueryBody = 64 << 10

// maxAppendBody bounds an /v1/append body, far under the write-ahead
// log's 64 MiB record bound, so no accepted delta is refused there.
const maxAppendBody = 8 << 20

// bodyStatus is the status a failed body read answers with: 413 when
// the body outgrew its http.MaxBytesReader, 400 otherwise.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// bodyBufs pools the query bodies, each read behind its endpoint's name
// and a NUL: the bytes the spec index hashes.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// specIndexCap bounds the spec index. A full index is emptied and
// refills from the next misses; a spec it forgot is parsed once more.
const specIndexCap = 4096

// specEntry is what a successful parse of one request body resolved to
// — and nothing it would cost memory to keep: no parsed steps, no body.
type specEntry struct {
	h     *graphHandle
	canon string            // chain.canonical
	tag   string            // chain.rangeTag
	dep   temporal.Interval // chain.depends
}

// specIndex maps SHA-256(endpoint, NUL, body) to the body's specEntry,
// so a repeated request skips JSON decoding, step parsing and
// canonicalisation. Entries depend only on the bytes, never on a
// graph's state, so nothing invalidates them.
type specIndex struct {
	mu sync.RWMutex
	m  map[[sha256.Size]byte]specEntry
}

func (x *specIndex) get(sum *[sha256.Size]byte) (specEntry, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	e, ok := x.m[*sum]
	return e, ok
}

func (x *specIndex) put(sum *[sha256.Size]byte, e specEntry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.m) >= specIndexCap {
		clear(x.m)
	}
	x.m[*sum] = e
}

// query is one query request on its way through the handler: the
// endpoint, the resolved spec, and the pooled body; steps holds the
// parsed chain once something has parsed it (the spec index lets a hit
// skip that).
type query struct {
	ep    *endpoint
	spec  specEntry
	body  []byte
	steps chain
}

// chain returns the parsed operator chain, re-parsing the body when
// the spec index answered the lookup (it indexes only bodies that
// parsed, so this parse succeeds too).
func (q *query) chain() (chain, error) {
	var err error
	if q.steps == nil {
		_, q.steps, err = parseBody(q.ep.name, q.body)
	}
	return q.steps, err
}

// handleQuery serves one query endpoint: admit, read the body, resolve
// it to a spec, run it.
func (s *Server) handleQuery(ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a, ok := s.admit(w, r, ep, true)
		if !ok {
			return
		}
		defer a.done()
		buf := bodyBufs.Get().(*bytes.Buffer)
		defer bodyBufs.Put(buf)
		buf.Reset()
		buf.WriteString(ep.name)
		buf.WriteByte(0)
		if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBody)); err != nil {
			s.fail(w, bodyStatus(err), err)
			return
		}
		q := query{ep: ep, body: buf.Bytes()[len(ep.name)+1:]}
		if code, err := s.resolve(&q, buf.Bytes()); err != nil {
			s.fail(w, code, err)
			return
		}
		s.run(w, r, &q)
	}
}

// resolve fills q.spec from the spec index, or parses q.body, indexes
// the result and keeps the parsed steps in q. keyed is what the index
// hashes: endpoint name, NUL, body. Only successful parses are indexed;
// a failure returns the status to answer with.
func (s *Server) resolve(q *query, keyed []byte) (int, error) {
	var sum [sha256.Size]byte
	if s.specs != nil {
		sum = sha256.Sum256(keyed)
		if e, ok := s.specs.get(&sum); ok {
			q.spec = e
			return 0, nil
		}
	}
	graph, steps, err := parseBody(q.ep.name, q.body)
	if err != nil {
		return http.StatusBadRequest, err
	}
	h, ok := s.graphs[graph]
	if !ok {
		return http.StatusNotFound, fmt.Errorf("unknown graph %q", graph)
	}
	q.spec = specEntry{h: h, canon: steps.canonical(), tag: steps.rangeTag(), dep: steps.depends()}
	q.steps = steps
	if s.specs != nil {
		s.specs.put(&sum, q.spec)
	}
	return 0, nil
}

// failEnsure answers a request whose graph could not be loaded or
// reloaded.
func (s *Server) failEnsure(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, storage.ErrIncompleteSave) || errors.Is(err, resil.ErrOpen) {
		// A save is in progress (or was torn, or the breaker refuses to
		// look); the graph may become loadable momentarily.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", s.retryAfter())
	}
	s.fail(w, code, err)
}

// Response header values, assigned under their canonical keys so that
// setting one allocates nothing. Every response shares them: never
// modify one.
var (
	jsonContent   = []string{"application/json"}
	staleGraph    = []string{"stale-graph"}
	outcomeValues = [...][]string{qcache.Miss: {"miss"}, qcache.Hit: {"hit"}, qcache.Shared: {"shared"}, qcache.Patched: {"patched"}}
)

// run executes a resolved query against its graph through the cache
// and writes the response. r's context scopes the graph's first load
// if this request triggers it, and bounds this caller's wait on a
// shared in-flight computation. A hit takes no lock of the handle's and
// reads no file: the graph, stamp, coordinator and tag version all come
// from the one published state ensure (or version, for a tag seen for
// the first time) returns. A miss runs pullUp, then compute.
func (s *Server) run(w http.ResponseWriter, r *http.Request, q *query) {
	if s.hook != nil {
		if err := s.hook("serve.handler"); err != nil {
			// An injected handler fault is a crash surrogate: surface it
			// through the panic-recovery middleware like any other bug.
			panic(err)
		}
	}
	h := q.spec.h
	st, err := h.ensure(r.Context(), s.cache, s.parallelism, s.scanParallelism)
	if err != nil {
		s.failEnsure(w, err)
		return
	}
	hdr := w.Header()
	if st.stale {
		s.degraded.Add(1)
		hdr["X-Tgraph-Degraded"] = staleGraph
	}
	// The chain's range tag and its current version are baked into the
	// key as their own segments: an append bumps the versions of (only)
	// the overlapping tags and sweeps their prefixes.
	st, version := h.version(st, q.spec.tag, q.spec.dep)
	var kb [256]byte
	key := string(appendCacheKey(kb[:0], h.name, q.spec.tag, version, st.stamp, q.spec.canon))
	val, outcome, err := s.cache.DoCtx(r.Context(), key, func() (any, int64, error) {
		steps, err := q.chain()
		if err != nil {
			return nil, 0, err
		}
		// One budget bounds the whole miss: a pull-up that falls back
		// leaves the chain's own compute what remains of it.
		budget, cancel := s.budget()
		defer cancel()
		if body, err := s.pullUp(r.Context(), budget, h, st, steps); err != nil {
			return nil, 0, err
		} else if body != nil {
			return body, int64(len(body)), nil
		}
		return s.compute(r.Context(), budget, h, st, steps, q.spec.canon)
	})
	if err != nil {
		s.fail(w, statusForRunError(err), err)
		return
	}
	if st.coord != nil {
		hdr["X-Tgraph-Shards"] = h.shardsHeader
	}
	hdr["Content-Type"] = jsonContent
	hdr["X-Tgraph-Cache"] = outcomeValues[outcome]
	w.Write(val.([]byte))
}

// budget returns the cancellation scope of one miss: the server's
// timeout from now, or none.
func (s *Server) budget() (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(context.Background(), s.timeout)
	}
	return context.Background(), func() {}
}

// compute runs a chain over st on a fresh dataflow context bound to
// budget — through the coordinator on a sharded handle — and encodes the
// result. It is the one cold path, for a request's chain and a pull-up's
// whole-graph step.
func (s *Server) compute(ctx, budget context.Context, h *graphHandle, st *servedState, steps chain, canon string) (any, int64, error) {
	// Viewable chains register a materialized-view slot on their first
	// computation, so the next append can patch this chain's entry
	// instead of leaving it invalidated.
	h.registerView(steps, canon)
	defer obs.StartSpan("serve.compute").End()
	s.computations.Add(1)
	reqCtx := dataflow.NewContext(
		dataflow.WithParallelism(s.parallelism),
		dataflow.WithContext(budget),
	)
	defer reqCtx.Close()
	// The scatter derives per-shard deadlines from runCtx; mirror the
	// budget's deadline onto it so shard legs observe the one the merge
	// runs under.
	runCtx := ctx
	if dl, ok := budget.Deadline(); ok && st.coord != nil {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithDeadline(runCtx, dl)
		defer cancel()
	}
	var body []byte
	err := reqCtx.Run(func() error {
		var out core.TGraph
		var err error
		if st.coord != nil {
			out, _, err = st.coord.Run(runCtx, reqCtx, shardQuery(steps))
		} else if out, err = core.Rebind(st.graph, reqCtx); err == nil {
			out, err = steps.apply(out)
		}
		if err != nil {
			return err
		}
		body = encodeGraph(out)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return body, int64(len(body)), nil
}

// pullUp answers a miss of a chain that is exactly [range r, azoom s],
// or returns no body and the caller computes the chain. The paper pushes
// a range down into the load, where it decides which chunks are read; a
// served graph is resident, so pullUp clips the body of [azoom s] over
// the whole graph to r instead (aZoom^T is point-wise; DESIGN.md "Range
// pull-up"). That body is cached under the key an /v1/azoom request for
// s reads and a view patch writes; when it is not resident, a range
// covering at least half the lifetime computes it, unless that compute
// failed under this version already. It needs a cache that keeps values,
// as the spec index does. pullUp falls back, counted, when clipBody
// declines or the compute fails, and returns the error when the request's
// context or budget has ended.
func (s *Server) pullUp(ctx, budget context.Context, h *graphHandle, st *servedState, steps chain) ([]byte, error) {
	if s.specs == nil || len(steps) != 2 || steps[0].norm.Op != "range" || steps[1].az == nil {
		return nil, nil
	}
	whole := steps[1:]
	canon := whole.canonical()
	var kb [256]byte
	key := string(appendCacheKey(kb[:0], h.name, "full", st.tags["full"].version, st.stamp, canon))
	val, ok := s.cache.Get(key)
	var err error
	if !ok {
		if life := st.graph.Lifetime(); 2*steps[0].iv.Intersect(life).Duration() < life.Duration() {
			return nil, nil
		}
		failed := key + "\x00failed" // a nil entry: the compute failed
		if _, f := s.cache.Get(failed); f {
			return nil, nil
		}
		val, _, err = s.cache.DoCtx(ctx, key, func() (any, int64, error) {
			return s.compute(ctx, budget, h, st, whole, canon)
		})
		if err != nil && ctx.Err() == nil {
			s.cache.Do(failed, func() (any, int64, error) { return nil, 0, nil })
		}
	}
	if err != nil && (ctx.Err() != nil || budget.Err() != nil) {
		return nil, err // nothing is left to fall back with
	}
	if err == nil {
		if body, ok := clipBody(val.([]byte), steps[0].iv); ok {
			s.pullups.Add(1)
			return body, nil
		}
	}
	s.pullupFallbacks.Add(1)
	return nil, nil
}

// shardQuery translates a parsed chain into the coordinator's query
// form: a leading azoom/wzoom step ships its spec for shard-side
// evaluation (keeping its apply as the gather fallback), a leading
// range step becomes the shard-side clip, and everything else runs as
// tail steps over the merged graph.
func shardQuery(c chain) shard.Query {
	q := shard.Query{Rep: core.RepVE}
	rest := c[1:]
	switch first := c[0]; first.norm.Op {
	case "azoom":
		q.AZ, q.First = first.az, first.apply
	case "wzoom":
		q.WZ, q.First = first.wz, first.apply
	case "range":
		q.Clip = first.iv
	default:
		rest = c
	}
	for _, st := range rest {
		q.Tail = append(q.Tail, st.apply)
	}
	return q
}

// handleAppend is the live-ingestion endpoint: it logs the request's
// deltas to the graph's write-ahead log and answers 200 only after
// they are fsynced — an acked append survives kill -9. A body over
// maxAppendBody is a 413 and logs nothing. A stale graph (its last
// reload failed) refuses appends with 503: accepting writes against a
// view the server cannot reconcile with disk risks divergence.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	a, ok := s.admit(w, r, s.appendEP, true)
	if !ok {
		return
	}
	defer a.done()
	var req AppendRequest
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxAppendBody), &req); err != nil {
		s.fail(w, bodyStatus(err), err)
		return
	}
	ds, err := parseDeltas(req.Deltas)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	h, ok := s.graphs[req.Graph]
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", req.Graph))
		return
	}
	st, err := h.ensure(r.Context(), s.cache, s.parallelism, s.scanParallelism)
	if err != nil {
		s.failEnsure(w, err)
		return
	}
	if st.stale {
		w.Header().Set("Retry-After", s.retryAfter())
		s.fail(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: graph %q is degraded (stale view); refusing append", req.Graph))
		return
	}
	resp, compacted, compactErr, err := h.append(s.cache, s.parallelism, ds)
	if err != nil {
		code := http.StatusInternalServerError
		if wal.IsCrash(err) {
			// The log is dead from an injected crash; the process would be
			// too in a real one. Refuse rather than misreport durability.
			code = http.StatusServiceUnavailable
		}
		s.fail(w, code, err)
		return
	}
	s.appends.Add(1)
	s.appendRecords.Add(int64(len(ds)))
	s.invalidatedC.Add(int64(resp.Invalidated))
	if compacted {
		s.compactions.Add(1)
	}
	if compactErr != nil {
		// The append is acked regardless — its records are durable; only
		// the fold into a new epoch failed and will retry.
		w.Header().Set("X-TGraph-Compact", "failed: "+compactErr.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// GraphInfo is one entry of the /v1/graphs listing.
type GraphInfo struct {
	Name    string `json:"name"`
	Dir     string `json:"dir"`
	Loaded  bool   `json:"loaded"`
	Stamp   string `json:"stamp,omitempty"`
	Breaker string `json:"breaker"`
	// WALSeq is the highest durable log sequence (0 before first load or
	// append); Appended counts records logged since the last compaction.
	WALSeq   uint64 `json:"walSeq,omitempty"`
	Appended int    `json:"appended,omitempty"`
	// Shards is the shard count of sharded serving (0 when the graph is
	// served unsharded).
	Shards int `json:"shards,omitempty"`
}

// info returns h's entry of the /v1/graphs listing.
func (h *graphHandle) info() GraphInfo {
	info := GraphInfo{Name: h.name, Dir: h.dir, Breaker: h.breaker.State().String()}
	if st := h.state.Load(); st != nil {
		info.Loaded, info.Stamp = true, st.stamp
		info.WALSeq, info.Appended = st.walSeq, st.appended
		if st.coord != nil {
			info.Shards = st.coord.N()
		}
	}
	return info
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	a, ok := s.admit(w, r, s.graphsEP, false)
	if !ok {
		return
	}
	defer a.done()
	out := make([]GraphInfo, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, s.graphs[name].info())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// Reload adopts a change made to graph name's directory from outside
// the server, such as an offline re-save: it reads MANIFEST and, when
// the stamp moved, reloads the graph and flushes its cache entries. It
// runs behind the graph's breaker and retry budget. A failure marks the
// graph stale — queries carry X-TGraph-Degraded: stale-graph, /readyz
// answers 503 and appends are refused — until a reload succeeds.
func (s *Server) Reload(ctx context.Context, name string) error {
	h, ok := s.graphs[name]
	if !ok {
		return fmt.Errorf("serve: unknown graph %q", name)
	}
	_, err := h.reload(ctx, s.cache, s.parallelism, s.scanParallelism)
	return err
}

// handleReload is POST /v1/graphs/{name}/reload: Server.Reload, answered
// with the graph's /v1/graphs entry.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	a, ok := s.admit(w, r, s.reloadEP, false)
	if !ok {
		return
	}
	defer a.done()
	err := s.Reload(r.Context(), r.PathValue("name"))
	switch h := s.graphs[r.PathValue("name")]; {
	case h == nil:
		s.fail(w, http.StatusNotFound, err)
	case err != nil:
		s.failEnsure(w, err)
	default:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h.info())
	}
}

// handleLive is the liveness probe: the process is up and the handler
// runs, nothing more. It stays 200 during drain — a draining process
// must not be restarted, just taken out of rotation (that is /readyz's
// job).
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n"))
}

// ReadyStatus is the /readyz response body: overall readiness plus a
// per-graph reason map ("ready", "degraded: …" or the load error).
type ReadyStatus struct {
	Ready    bool              `json:"ready"`
	Draining bool              `json:"draining,omitempty"`
	Graphs   map[string]string `json:"graphs,omitempty"`
}

// handleReady is the readiness probe: 200 only when the server is not
// draining and every configured graph is loaded (loading it now if
// needed) and not stale. A draining server answers 503 at once, so load
// balancers stop routing before http.Server Shutdown races in-flight
// requests; a stale graph's instance still answers, but new traffic is
// better sent to a healthy replica.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	st := ReadyStatus{Ready: true, Graphs: make(map[string]string, len(s.names))}
	if s.draining.Load() {
		st.Ready, st.Draining = false, true
	} else {
		for _, name := range s.names {
			h := s.graphs[name]
			cur, err := h.ensure(r.Context(), s.cache, s.parallelism, s.scanParallelism)
			switch {
			case err != nil:
				st.Ready = false
				st.Graphs[name] = err.Error()
			case cur.stale:
				st.Ready = false
				st.Graphs[name] = "degraded: serving stale graph, breaker " + h.breaker.State().String()
			default:
				st.Graphs[name] = "ready"
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(obs.Default().Snapshot())
}
