// Package faults is a deterministic, seeded fault-injection harness for
// the execution stack. It plugs into the three injection points the
// stack exposes — dataflow.WithFaultHook (called at the start of every
// task attempt), storage.ReadOptions.ChunkHook (called with every
// chunk's raw bytes before integrity checks) and storage WriteOptions /
// SaveOptions FaultHook (called at every crash point of the atomic
// write path) — and injects panics, transient errors, delays, byte
// corruption, or simulated crashes according to declarative rules.
//
// Determinism: every decision is a pure function of (seed, site, hit
// index). Running the same workload twice with the same seed injects
// the same faults at the same sites, which is what lets the chaos tests
// (make chaos) run under -race with fixed seeds and still
// assert exact outcomes.
//
// Known sites:
//
//	dataflow.map, dataflow.flatmap, dataflow.filter,
//	dataflow.mappartitions, dataflow.shuffle-route,
//	dataflow.shuffle-gather, dataflow.groupbykey, dataflow.reducebykey
//	(task attempts; a GroupByKey visits shuffle-route and groupbykey
//	only, a ReduceByKey mappartitions, shuffle-route, shuffle-gather
//	and reducebykey);
//	storage.pgc.chunk, storage.pgn.chunk (chunk reads);
//	storage.write.create, storage.write.short, storage.write.sync,
//	storage.write.rename (atomic-write crash points);
//	storage.wal.append, storage.wal.sync, storage.wal.rotate,
//	storage.wal.compact (write-ahead-log durability points, reached
//	through wal.Options.Hook / storage.SaveOptions.FaultHook during
//	compaction);
//	serve.reload (the query service's stamp-check-and-reload path,
//	guarded by its circuit breaker), serve.handler (the start of every
//	query handler, upstream of the panic-recovery middleware) — both
//	reached through serve.Config.FaultHook / Injector.ServeHook;
//	incr.apply.azoom, incr.apply.wzoom (the start of view maintenance)
//	and incr.apply.commit (the last fallible step before a view commits
//	its staged patch) — reached through incr.Options.Hook, which also
//	accepts Injector.ServeHook.
//
// Rules match sites by prefix, so Site: "dataflow." targets every
// engine stage and Site: "storage.write." every write crash point.
package faults

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dataflow"
)

// Kind selects what a matching rule injects.
type Kind int

const (
	// Panic aborts the task attempt with a non-retryable *Error.
	Panic Kind = iota
	// Transient aborts the task attempt with a dataflow.Transient
	// *Error, exercising the retry path.
	Transient
	// Delay sleeps Rule.Delay before the task attempt proceeds.
	Delay
	// Corrupt flips one byte of the chunk in a storage ChunkHook
	// (ignored at dataflow sites, which carry no payload).
	Corrupt
	// Crash aborts a storage write at a storage.write.* site,
	// simulating a process crash at that instant: the write path skips
	// all cleanup, leaving staged temp files and torn writes on disk
	// exactly as a real crash would (only WriteHook honours it).
	Crash
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Transient:
		return "transient"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule is one fault-injection rule.
type Rule struct {
	// Site is a prefix matched against the injection-site name
	// ("dataflow." matches every engine stage). Empty matches all.
	Site string
	// Kind is what to inject.
	Kind Kind
	// Every fires the rule on hits N, 2N, 3N, … of matching sites
	// (counted per rule, so one rule's cadence is independent of
	// another's). Exactly reproducible — preferred for tests asserting
	// counts.
	Every int
	// Prob fires the rule on each hit with this probability, decided
	// by a hash of (seed, rule, hit) — reproducible for a fixed seed,
	// but the count depends on how many hits occur. Used when
	// Every == 0.
	Prob float64
	// Delay is the sleep duration for Kind Delay.
	Delay time.Duration
}

// Error is the failure value injected by Panic and Transient rules.
type Error struct {
	// Site is where the fault fired.
	Site string
	// Hit is the per-rule hit index (1-based) that fired.
	Hit int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected failure at %s (hit %d)", e.Site, e.Hit)
}

// Injector evaluates rules at injection sites. Safe for concurrent use.
type Injector struct {
	seed  int64
	rules []Rule

	mu       sync.Mutex
	hits     []int64          // per-rule hit counts
	injected map[string]int64 // per-site injected-fault counts
}

// New returns an Injector with the given seed and rules.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{
		seed:     seed,
		rules:    rules,
		hits:     make([]int64, len(rules)),
		injected: make(map[string]int64),
	}
}

// splitmix64 is the SplitMix64 mixer — a cheap, well-distributed hash
// for the (seed, rule, hit) → decision mapping.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fire reports whether rule r (index ri) fires on its next hit at site,
// returning the 1-based hit index.
func (in *Injector) fire(ri int, site string) (int64, bool) {
	r := in.rules[ri]
	in.mu.Lock()
	in.hits[ri]++
	hit := in.hits[ri]
	in.mu.Unlock()
	switch {
	case r.Every > 0:
		if hit%int64(r.Every) != 0 {
			return hit, false
		}
	case r.Prob > 0:
		h := splitmix64(uint64(in.seed) ^ splitmix64(uint64(ri)+1) ^ splitmix64(uint64(hit)))
		if float64(h>>11)/float64(1<<53) >= r.Prob {
			return hit, false
		}
	default:
		return hit, false
	}
	in.mu.Lock()
	in.injected[site]++
	in.mu.Unlock()
	return hit, true
}

// Hook returns the dataflow fault hook (dataflow.WithFaultHook). Panic
// and Transient rules abort the attempt; Delay rules sleep; Corrupt
// rules are ignored here.
func (in *Injector) Hook() dataflow.FaultHook {
	return func(site string, partition int) {
		for ri, r := range in.rules {
			if r.Site != "" && !hasPrefix(site, r.Site) {
				continue
			}
			switch r.Kind {
			case Delay:
				if _, ok := in.fire(ri, site); ok {
					time.Sleep(r.Delay)
				}
			case Panic:
				if hit, ok := in.fire(ri, site); ok {
					panic(&Error{Site: site, Hit: hit})
				}
			case Transient:
				if hit, ok := in.fire(ri, site); ok {
					panic(dataflow.Transient(&Error{Site: site, Hit: hit}))
				}
			}
		}
	}
}

// ChunkHook returns the storage chunk hook
// (storage.ReadOptions.ChunkHook). Corrupt rules return a copy of the
// chunk with one deterministically chosen byte flipped; other kinds are
// ignored here.
func (in *Injector) ChunkHook() func(site string, chunk []byte) []byte {
	return func(site string, chunk []byte) []byte {
		for ri, r := range in.rules {
			if r.Kind != Corrupt {
				continue
			}
			if r.Site != "" && !hasPrefix(site, r.Site) {
				continue
			}
			hit, ok := in.fire(ri, site)
			if !ok || len(chunk) == 0 {
				continue
			}
			bad := append([]byte(nil), chunk...)
			pos := splitmix64(uint64(in.seed)^splitmix64(uint64(hit))) % uint64(len(bad))
			bad[pos] ^= 0xFF
			return bad
		}
		return chunk
	}
}

// ServeHook returns the serving-layer hook (serve.Config.FaultHook),
// called at the serve.* injection sites. Panic rules panic with the
// injected *Error — at serve.handler that exercises the serving layer's
// panic-recovery middleware; Transient rules return the *Error wrapped
// dataflow.Transient, which the reload path treats as the failure of
// the guarded operation (feeding the circuit breaker and retry budget);
// Delay rules sleep, simulating a slow dependency; Corrupt and Crash
// are ignored here.
func (in *Injector) ServeHook() func(site string) error {
	return func(site string) error {
		for ri, r := range in.rules {
			if r.Site != "" && !hasPrefix(site, r.Site) {
				continue
			}
			switch r.Kind {
			case Delay:
				if _, ok := in.fire(ri, site); ok {
					time.Sleep(r.Delay)
				}
			case Panic:
				if hit, ok := in.fire(ri, site); ok {
					panic(&Error{Site: site, Hit: hit})
				}
			case Transient:
				if hit, ok := in.fire(ri, site); ok {
					return dataflow.Transient(&Error{Site: site, Hit: hit})
				}
			}
		}
		return nil
	}
}

// WriteHook returns the storage write-path crash hook (the FaultHook
// field of storage WriteOptions / SaveOptions). Crash rules abort the
// write at the matched storage.write.* site with an *Error, which the
// write path treats as a process crash (staged temp files are left on
// disk, cleanup is skipped); other kinds are ignored here.
func (in *Injector) WriteHook() func(site string) error {
	return func(site string) error {
		for ri, r := range in.rules {
			if r.Kind != Crash {
				continue
			}
			if r.Site != "" && !hasPrefix(site, r.Site) {
				continue
			}
			if hit, ok := in.fire(ri, site); ok {
				return &Error{Site: site, Hit: hit}
			}
		}
		return nil
	}
}

// Injected returns a copy of the per-site injected-fault counts.
func (in *Injector) Injected() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.injected))
	for k, v := range in.injected {
		out[k] = v
	}
	return out
}

// InjectedTotal returns the total number of injected faults.
func (in *Injector) InjectedTotal() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.injected {
		n += v
	}
	return n
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
