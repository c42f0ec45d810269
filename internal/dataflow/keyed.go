package dataflow

import "hash/maphash"

// Keyed (wide) transformations. Each performs a hash shuffle: every
// source partition routes its records to a target partition determined
// by the hash of the record's key, then the per-key operation runs
// partition-locally. ReduceByKey applies map-side combining before the
// shuffle, mirroring Spark's combiners.

// Pair is a generic 2-tuple, used for join results and keyed outputs.
type Pair[A, B any] struct {
	First  A
	Second B
}

// Group is a key with all records sharing it. Values is a
// capacity-capped run of an array the groups of one partition share:
// fresh (it aliases no input dataset), so its consumer may reorder or
// overwrite it in place, but it lives as long as any sibling group is
// retained.
type Group[K comparable, V any] struct {
	Key    K
	Values []V
}

func hashKey[K comparable](seed maphash.Seed, k K) uint64 {
	return maphash.Comparable(seed, k)
}

// route is the map side of a hash shuffle: one task per source partition
// computes each record's destination, hash(key) % numOut, into a side
// array parallel to the partition and, when keys is non-nil, stores the
// key beside it — so key runs exactly once per record. No record moves
// here: the destination tasks copy straight from the source partitions.
func route[K comparable, V any](d *Dataset[V], key func(V) K, numOut int, keys [][]K) [][]int32 {
	dsts := make([][]int32, len(d.parts))
	d.ctx.runTasks("shuffle-route", len(d.parts), func(i int) {
		recs := d.parts[i]
		ds := make([]int32, len(recs))
		if keys != nil {
			keys[i] = make([]K, len(recs))
		}
		for j, rec := range recs {
			k := key(rec)
			ds[j] = int32(hashKey(d.ctx.seed, k) % uint64(numOut))
			if keys != nil {
				keys[i][j] = k
			}
		}
		dsts[i] = ds
	})
	return dsts
}

// shuffleByKey routes each record to partition hash(key) % numOut and
// gathers each destination, in (source, record) order, straight from
// the source partitions into one exactly-sized array: one copy per
// record and one allocation per destination.
func shuffleByKey[K comparable, V any](d *Dataset[V], key func(V) K, numOut int) [][]V {
	dsts := route(d, key, numOut, nil)
	out := make([][]V, numOut)
	d.ctx.runTasks("shuffle-gather", numOut, func(dst int) {
		n := 0
		for _, ds := range dsts {
			for _, t := range ds {
				if t == int32(dst) {
					n++
				}
			}
		}
		p := make([]V, 0, n)
		for src, ds := range dsts {
			recs := d.parts[src]
			for j, t := range ds {
				if t == int32(dst) {
					p = append(p, recs[j])
				}
			}
		}
		out[dst] = p
	})
	d.ctx.countShuffle(int64(d.Count()), numOut)
	return out
}

// startOffsets turns per-group sizes into per-group start offsets in
// place and returns the total size.
func startOffsets(sizes []int) int {
	sum := 0
	for g, c := range sizes {
		sizes[g] = sum
		sum += c
	}
	return sum
}

// scatter lays recs out group-contiguously in ONE backing array: gids
// gives each record's group number in [0, n), and run g of the result
// holds group g's records in input order. Runs are capacity-capped
// sub-slices (a[i:j:j]) of the shared array, so appending to one
// reallocates it instead of overwriting its neighbour; an empty group's
// run is nil.
func scatter[V any](recs []V, gids []int32, n int) [][]V {
	ends := make([]int, n)
	for _, g := range gids {
		ends[g]++
	}
	arena := make([]V, startOffsets(ends))
	for j, rec := range recs {
		arena[ends[gids[j]]] = rec
		ends[gids[j]]++
	}
	runs := make([][]V, n)
	start := 0
	for g, end := range ends {
		if end > start {
			runs[g] = arena[start:end:end]
		}
		start = end
	}
	return runs
}

// groupRecords builds the per-key runs of one partition: the key →
// group number index (groups numbered in first-seen order) and, per
// group, its records in input order (see scatter for the layout and
// aliasing rules).
func groupRecords[K comparable, R any](recs []R, key func(R) K) (map[K]int32, [][]R) {
	idx := make(map[K]int32)
	gids := make([]int32, len(recs))
	for j, rec := range recs {
		k := key(rec)
		g, ok := idx[k]
		if !ok {
			g = int32(len(idx))
			idx[k] = g
		}
		gids[j] = g
	}
	return idx, scatter(recs, gids, len(idx))
}

// GroupByKey shuffles by key and materialises one Group per distinct
// key, in first-seen order. Like Spark's groupByKey it moves every
// record; prefer ReduceByKey when a combiner applies.
// The key function is invoked exactly once per record, map-side: the
// route stage carries the keys in a side array, so a non-deterministic
// or stateful key function cannot misgroup on the reduce side. Each
// record is copied once: a destination task numbers its groups from the
// carried keys, then places the records from the source partitions
// straight into one group-contiguous array (see Group).
func GroupByKey[K comparable, V any](d *Dataset[V], key func(V) K) *Dataset[Group[K, V]] {
	numOut := len(d.parts)
	keys := make([][]K, len(d.parts))
	dsts := route(d, key, numOut, keys)
	// gids[src][j] is record j's group number within its destination,
	// written by the one destination task that owns the record.
	gids := make([][]int32, len(d.parts))
	for i, p := range d.parts {
		gids[i] = make([]int32, len(p))
	}
	out := make([][]Group[K, V], numOut)
	d.ctx.runTasks("groupbykey", numOut, func(dst int) {
		idx := make(map[K]int32)
		var gkeys []K
		var ends []int // per group: its size, then its start, then its end
		for src, ds := range dsts {
			for j, t := range ds {
				if t != int32(dst) {
					continue
				}
				k := keys[src][j]
				g, ok := idx[k]
				if !ok {
					g = int32(len(gkeys))
					idx[k] = g
					gkeys = append(gkeys, k)
					ends = append(ends, 0)
				}
				ends[g]++
				gids[src][j] = g
			}
		}
		arena := make([]V, startOffsets(ends))
		for src, ds := range dsts {
			recs := d.parts[src]
			for j, t := range ds {
				if t == int32(dst) {
					g := gids[src][j]
					arena[ends[g]] = recs[j]
					ends[g]++
				}
			}
		}
		groups := make([]Group[K, V], len(gkeys))
		start := 0
		for g, end := range ends {
			groups[g] = Group[K, V]{Key: gkeys[g], Values: arena[start:end:end]}
			start = end
		}
		out[dst] = groups
	})
	d.ctx.countShuffle(int64(d.Count()), numOut)
	return &Dataset[Group[K, V]]{ctx: d.ctx, parts: out}
}

// ReduceByKey combines records sharing a key with reduce, which must be
// commutative and associative. A map-side combiner runs before the
// shuffle, so only one record per (partition, key) is moved. Keys are
// computed once per input record and carried explicitly, so reduce need
// not preserve the derived key.
func ReduceByKey[K comparable, V any](d *Dataset[V], key func(V) K, reduce func(a, b V) V) *Dataset[V] {
	combined := MapPartitions(d, func(_ int, recs []V) []Pair[K, V] {
		idx := make(map[K]int)
		var acc []Pair[K, V]
		for _, rec := range recs {
			k := key(rec)
			if j, ok := idx[k]; ok {
				acc[j].Second = reduce(acc[j].Second, rec)
			} else {
				idx[k] = len(acc)
				acc = append(acc, Pair[K, V]{First: k, Second: rec})
			}
		}
		return acc
	})
	shuffled := shuffleByKey(combined, func(p Pair[K, V]) K { return p.First }, len(d.parts))
	out := make([][]V, len(shuffled))
	d.ctx.runTasks("reducebykey", len(shuffled), func(i int) {
		idx := make(map[K]int)
		var acc []V
		for _, p := range shuffled[i] {
			if j, ok := idx[p.First]; ok {
				acc[j] = reduce(acc[j], p.Second)
			} else {
				idx[p.First] = len(acc)
				acc = append(acc, p.Second)
			}
		}
		out[i] = acc
	})
	return &Dataset[V]{ctx: d.ctx, parts: out}
}

// Join computes the inner equi-join of l and r on their keys: one
// output pair per matching (left, right) combination. Both sides are
// hash-shuffled to the same partitioning.
func Join[K comparable, L, R any](l *Dataset[L], r *Dataset[R], lKey func(L) K, rKey func(R) K) *Dataset[Pair[L, R]] {
	n := max(len(l.parts), len(r.parts))
	ls := shuffleByKey(l, lKey, n)
	rs := shuffleByKey(r, rKey, n)
	out := make([][]Pair[L, R], n)
	l.ctx.runTasks("join", n, func(i int) {
		idx, rights := groupRecords(rs[i], rKey)
		// Look every left record up once, so that the output is sized
		// before it is filled.
		matched := make([]int32, len(ls[i]))
		total := 0
		for j, ll := range ls[i] {
			g, ok := idx[lKey(ll)]
			if !ok {
				g = -1
			} else {
				total += len(rights[g])
			}
			matched[j] = g
		}
		p := make([]Pair[L, R], 0, total)
		for j, ll := range ls[i] {
			if g := matched[j]; g >= 0 {
				for _, rr := range rights[g] {
					p = append(p, Pair[L, R]{First: ll, Second: rr})
				}
			}
		}
		out[i] = p
	})
	return &Dataset[Pair[L, R]]{ctx: l.ctx, parts: out}
}

// SemiJoin keeps the left records whose key appears in the right
// dataset (at most once each), optionally filtered by match: if match
// is non-nil a left record is kept when match(l, r) holds for at least
// one right record with the same key. The kept records of a partition
// are compacted in place in the array the shuffle gathered them into.
func SemiJoin[K comparable, L, R any](l *Dataset[L], r *Dataset[R], lKey func(L) K, rKey func(R) K, match func(L, R) bool) *Dataset[L] {
	n := max(len(l.parts), len(r.parts))
	ls := shuffleByKey(l, lKey, n)
	rs := shuffleByKey(r, rKey, n)
	out := make([][]L, n)
	l.ctx.runTasks("semijoin", n, func(i int) {
		idx, rights := groupRecords(rs[i], rKey)
		// ls[i] is this task's own freshly gathered array: the kept
		// records are compacted to its front, behind the read position.
		p := ls[i][:0]
		for _, ll := range ls[i] {
			g, ok := idx[lKey(ll)]
			if !ok {
				continue
			}
			if match == nil {
				p = append(p, ll)
				continue
			}
			for _, rr := range rights[g] {
				if match(ll, rr) {
					p = append(p, ll)
					break
				}
			}
		}
		out[i] = p[:len(p):len(p)]
	})
	return &Dataset[L]{ctx: l.ctx, parts: out}
}
