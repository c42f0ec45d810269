// Package qcache is a size-bounded, singleflight-deduplicating LRU
// cache for zoom query results. It is the result-reuse layer under the
// serving stack (internal/serve) and the library facade: entries are
// keyed by a canonical fingerprint of (graph identity, operator chain,
// specs) built with Key, values are opaque immutable results measured
// in bytes, and N concurrent requests for the same missing key trigger
// exactly one computation — the rest block and share its result.
//
// The cache reports to the process-wide obs registry:
//
//	qcache.hits          result served from the cache
//	qcache.shared        result shared from an in-flight computation
//	qcache.misses        computations executed
//	qcache.evictions     entries evicted by the size bound
//	qcache.invalidations entries dropped by InvalidatePrefix
//	qcache.patches       bodies refreshed in place by Patch
//	qcache.sharers_cancelled sharers that stopped waiting (DoCtx)
//	qcache.bytes         resident value bytes (gauge, all caches)
//	qcache.entries       resident entries (gauge, all caches)
package qcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"sync"

	"repro/internal/obs"
)

// ErrComputePanicked is the error sharers of a flight receive when the
// computing call panicked: the panic propagates on the computing
// goroutine, and everyone waiting on it gets this instead of hanging.
var ErrComputePanicked = errors.New("qcache: shared computation panicked")

// Outcome classifies how Do obtained its result.
type Outcome int

const (
	// Miss: this call executed the computation.
	Miss Outcome = iota
	// Hit: the result was already resident in the cache.
	Hit
	// Shared: another in-flight call was computing the same key; this
	// call blocked and shares its result.
	Shared
	// Patched: the resident result was produced by Patch — incremental
	// view maintenance refreshed the body in place instead of the entry
	// being recomputed after an invalidation.
	Patched
)

// String renders the outcome as a wire-friendly token ("miss", "hit",
// "shared", "patched") — the serving layer exposes it in a response
// header.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	case Patched:
		return "patched"
	default:
		return "miss"
	}
}

// entry is one resident cache value.
type entry struct {
	key  string
	val  any
	size int64
	// patched marks a body written by Patch rather than computed by a
	// flight; hits on it report Outcome Patched.
	patched bool
}

// flight is one in-progress computation other callers may join.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is the LRU + singleflight store. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *entry
	items    map[string]*list.Element
	flights  map[string]*flight

	hits             *obs.Counter
	shared           *obs.Counter
	misses           *obs.Counter
	evictions        *obs.Counter
	invalidations    *obs.Counter
	patches          *obs.Counter
	sharersCancelled *obs.Counter
	bytesGauge       *obs.Gauge
	entriesGauge     *obs.Gauge
}

// New returns a cache bounded to maxBytes of resident value bytes
// (entry sizes are caller-declared). maxBytes <= 0 disables residency:
// every Do computes (after deduplication) and nothing is retained.
func New(maxBytes int64) *Cache {
	r := obs.Default()
	return &Cache{
		maxBytes:         maxBytes,
		ll:               list.New(),
		items:            make(map[string]*list.Element),
		flights:          make(map[string]*flight),
		hits:             r.Counter("qcache.hits"),
		shared:           r.Counter("qcache.shared"),
		misses:           r.Counter("qcache.misses"),
		evictions:        r.Counter("qcache.evictions"),
		invalidations:    r.Counter("qcache.invalidations"),
		patches:          r.Counter("qcache.patches"),
		sharersCancelled: r.Counter("qcache.sharers_cancelled"),
		bytesGauge:       r.Gauge("qcache.bytes"),
		entriesGauge:     r.Gauge("qcache.entries"),
	}
}

// Key fingerprints an ordered list of canonical string parts into a
// fixed-length hex digest. Parts are length-prefixed before hashing so
// ("ab","c") and ("a","bc") cannot collide.
func Key(parts ...string) string {
	var b [2 * sha256.Size]byte
	return string(AppendKey(b[:0], parts...))
}

// AppendKey appends Key(parts...) to dst. The hashed input is built in
// a stack buffer while it fits one, so a caller that appends into a
// stack buffer of its own allocates nothing here.
func AppendKey(dst []byte, parts ...string) []byte {
	var buf [512]byte
	in := buf[:0]
	for _, p := range parts {
		in = binary.BigEndian.AppendUint64(in, uint64(len(p)))
		in = append(in, p...)
	}
	sum := sha256.Sum256(in)
	return hex.AppendEncode(dst, sum[:])
}

// Get returns the resident value for key, refreshing its recency. It
// never joins an in-flight computation; use Do for that.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry).val, true
	}
	return nil, false
}

// Patch inserts or replaces the resident value for key in place,
// marking it so hits report Outcome Patched. It is the maintenance-side
// counterpart of InvalidatePrefix: when incremental view maintenance
// (internal/incr) can produce the post-delta body directly, the serving
// layer patches the entry under the new version key instead of letting
// the next query recompute from a cold miss. Patch bypasses
// singleflight — it never joins or cancels a flight; a racing computed
// insert for the same key simply overwrites the body (both are valid
// post-delta results). It reports whether the value became resident
// (false when residency is disabled or the value exceeds the budget).
func (c *Cache) Patch(key string, val any, size int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size < 0 {
		size = 0
	}
	if c.maxBytes <= 0 || size > c.maxBytes {
		return false
	}
	c.insertLocked(key, val, size)
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).patched = true
	}
	c.patches.Add(1)
	return true
}

// Do returns the value for key, computing it at most once across
// concurrent callers: a resident value is returned immediately (Hit);
// if another call is computing the key, Do blocks and shares its
// result or error (Shared); otherwise Do runs compute (Miss), inserts
// the value sized at the returned byte count, and wakes the sharers.
// Compute errors are shared with waiters but never cached.
func (c *Cache) Do(key string, compute func() (any, int64, error)) (any, Outcome, error) {
	return c.DoCtx(context.Background(), key, compute)
}

// DoCtx is Do with sharer cancellation: ctx bounds only the waiting. A
// caller that becomes a sharer and whose ctx ends while the leader is
// still computing stops waiting and returns ctx's error promptly (with
// Outcome Shared and a nil value); the leader is unaffected — it
// ignores ctx, finishes the computation, and its result is cached for
// future callers as usual. The leader's own compute is NOT cancelled by
// ctx; bound it inside compute if needed.
func (c *Cache) DoCtx(ctx context.Context, key string, compute func() (any, int64, error)) (any, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		// Read the entry under the lock: insertLocked and Patch replace a
		// resident entry's value in place.
		ent := el.Value.(*entry)
		val, out := ent.val, Hit
		if ent.patched {
			out = Patched
		}
		c.mu.Unlock()
		return val, out, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			c.sharersCancelled.Add(1)
			return nil, Shared, ctx.Err()
		}
		c.shared.Add(1)
		return f.val, Shared, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	completed := false
	defer func() {
		// Never strand the sharers: if compute panicked, wake them with
		// no value before the panic unwinds.
		if !completed {
			c.mu.Lock()
			delete(c.flights, key)
			c.mu.Unlock()
			f.err = ErrComputePanicked
			close(f.done)
		}
	}()
	val, size, err := compute()
	completed = true

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.insertLocked(key, val, size)
	}
	c.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	c.misses.Add(1)
	return val, Miss, err
}

// insertLocked adds a computed value and enforces the size bound.
// Values larger than the whole budget are returned to the caller but
// never resident.
func (c *Cache) insertLocked(key string, val any, size int64) {
	if size < 0 {
		size = 0
	}
	if c.maxBytes <= 0 || size > c.maxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		// A racing Invalidate + recompute can land here; replace in
		// place. A computed body also clears the patched provenance.
		old := el.Value.(*entry)
		c.bytes -= old.size
		c.bytesGauge.Add(-old.size)
		old.val, old.size, old.patched = val, size, false
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry{key: key, val: val, size: size})
		c.items[key] = el
		c.entriesGauge.Add(1)
	}
	c.bytes += size
	c.bytesGauge.Add(size)
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Add(1)
	}
}

// removeLocked drops one resident entry.
func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.size
	c.bytesGauge.Add(-ent.size)
	c.entriesGauge.Add(-1)
}

// InvalidatePrefix drops every resident entry whose key begins with
// prefix, returning how many were dropped. The serving layer keys
// entries as "<graph>|<fingerprint>" so a graph whose manifest epoch
// changed can be flushed with InvalidatePrefix("<graph>|").
func (c *Cache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var doomed []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if strings.HasPrefix(el.Value.(*entry).key, prefix) {
			doomed = append(doomed, el)
		}
	}
	for _, el := range doomed {
		c.removeLocked(el)
	}
	c.invalidations.Add(int64(len(doomed)))
	return len(doomed)
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the resident value bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
