package dataflow

import (
	"cmp"
	"hash/maphash"
	"slices"
)

// Keyed (wide) transformations. Each performs a hash shuffle: every
// source partition routes its records to a target partition determined
// by the hash of the record's key. Each target partition then groups
// its records by sorting them, as Spark's sort-based shuffle does,
// under the key order the caller passes: a total order on K that
// agrees with ==. No keyed operator builds a hash table, and groups
// leave every partition in key order. ReduceByKey applies map-side
// combining before the shuffle, mirroring Spark's combiners.

// Pair is a generic 2-tuple, used for keyed records.
type Pair[A, B any] struct {
	First  A
	Second B
}

// Group is a key with all records sharing it. The groups of a partition
// come in key order, and a group's Values in input order. Values is a
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

// routed calls f, unless nil, with the source and position of every
// record routed to dst, in (source, position) order, and returns their
// number.
func routed(dsts [][]int32, dst int, f func(src, pos int32)) int {
	n := 0
	for src, ds := range dsts {
		for j, t := range ds {
			if t == int32(dst) {
				if f != nil {
					f(int32(src), int32(j))
				}
				n++
			}
		}
	}
	return n
}

// shuffleByKey routes each record to partition hash(key) % numOut and
// gathers each destination, in (source, record) order, straight from
// the source partitions into one exactly-sized array: one copy per
// record and one allocation per destination.
func shuffleByKey[K comparable, V any](d *Dataset[V], key func(V) K, numOut int) [][]V {
	dsts := route(d, key, numOut, nil)
	out := make([][]V, numOut)
	d.ctx.runTasks("shuffle-gather", numOut, func(dst int) {
		p := make([]V, 0, routed(dsts, dst, nil))
		routed(dsts, dst, func(src, pos int32) { p = append(p, d.parts[src][pos]) })
		out[dst] = p
	})
	d.ctx.countShuffle(int64(d.Count()), numOut)
	return out
}

// ref names one record of a shuffle's input: its source partition and
// its position there.
type ref struct{ src, pos int32 }

// GroupByKey shuffles by key and materialises one Group per distinct
// key. Like Spark's groupByKey it moves every record; prefer
// ReduceByKey when a combiner applies. It groups by sorting: a
// destination task sorts the refs to its records by (key, source,
// position) under order, then copies each record once, straight from
// the source partitions into one group-contiguous array (see Group).
// The key function is invoked exactly once per record, map-side: the
// route stage carries the keys in a side array, so a non-deterministic
// or stateful key function cannot misgroup on the reduce side.
func GroupByKey[K comparable, V any](d *Dataset[V], key func(V) K, order func(a, b K) int) *Dataset[Group[K, V]] {
	numOut := len(d.parts)
	keys := make([][]K, len(d.parts))
	dsts := route(d, key, numOut, keys)
	out := make([][]Group[K, V], numOut)
	d.ctx.runTasks("groupbykey", numOut, func(dst int) {
		refs := make([]ref, 0, routed(dsts, dst, nil))
		routed(dsts, dst, func(src, pos int32) { refs = append(refs, ref{src, pos}) })
		keyOf := func(i int) K { return keys[refs[i].src][refs[i].pos] }
		slices.SortFunc(refs, func(a, b ref) int {
			if c := order(keys[a.src][a.pos], keys[b.src][b.pos]); c != 0 {
				return c
			}
			return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.pos, b.pos))
		})
		n := 0
		for lo := 0; lo < len(refs); lo = runEnd(len(refs), lo, keyOf, order) {
			n++
		}
		arena := make([]V, len(refs))
		for i, r := range refs {
			arena[i] = d.parts[r.src][r.pos]
		}
		groups := make([]Group[K, V], 0, n)
		for lo, hi := 0, 0; lo < len(refs); lo = hi {
			hi = runEnd(len(refs), lo, keyOf, order)
			groups = append(groups, Group[K, V]{Key: keyOf(lo), Values: arena[lo:hi:hi]})
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
// not preserve the derived key. Both sides fold the runs of a sorted
// index: a partition's output comes in key order, and a key's records
// are combined in input order.
func ReduceByKey[K comparable, V any](d *Dataset[V], key func(V) K, order func(a, b K) int, reduce func(a, b V) V) *Dataset[V] {
	combined := MapPartitions(d, func(_ int, recs []V) []Pair[K, V] {
		idx := sortedIndex(len(recs), func(j int) K { return key(recs[j]) }, order)
		return foldRuns(idx, order, func(j int32) V { return recs[j] }, reduce,
			func(k K, v V) Pair[K, V] { return Pair[K, V]{First: k, Second: v} })
	})
	shuffled := shuffleByKey(combined, func(p Pair[K, V]) K { return p.First }, len(d.parts))
	out := make([][]V, len(shuffled))
	d.ctx.runTasks("reducebykey", len(shuffled), func(i int) {
		ps := shuffled[i]
		idx := sortedIndex(len(ps), func(j int) K { return ps[j].First }, order)
		out[i] = foldRuns(idx, order, func(j int32) V { return ps[j].Second }, reduce, func(_ K, v V) V { return v })
	})
	return &Dataset[V]{ctx: d.ctx, parts: out}
}

// keyed is one entry of a sorted index: a record's key and position.
type keyed[K any] struct {
	key K
	pos int32
}

// sortedIndex indexes n records, record j by key(j), sorted by (key,
// position) under order: each key's records form one run, in input
// order, and no record moves.
func sortedIndex[K any](n int, key func(j int) K, order func(a, b K) int) []keyed[K] {
	idx := make([]keyed[K], n)
	for j := range idx {
		idx[j] = keyed[K]{key(j), int32(j)}
	}
	slices.SortFunc(idx, func(a, b keyed[K]) int {
		if c := order(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	return idx
}

// runEnd returns the end of the run of equal keys that starts at lo
// among n entries sorted by key, entry i keyed by keyAt(i).
func runEnd[K any](n, lo int, keyAt func(i int) K, order func(a, b K) int) int {
	hi := lo + 1
	for hi < n && order(keyAt(lo), keyAt(hi)) == 0 {
		hi++
	}
	return hi
}

// foldRuns folds each run of idx front to back with reduce — val reads
// the record at a position — and lists emit(key, result) in key order.
func foldRuns[K, V, O any](idx []keyed[K], order func(a, b K) int, val func(pos int32) V, reduce func(a, b V) V, emit func(K, V) O) []O {
	keyAt := func(i int) K { return idx[i].key }
	n := 0
	for lo := 0; lo < len(idx); lo = runEnd(len(idx), lo, keyAt, order) {
		n++
	}
	out := make([]O, 0, n)
	for lo, hi := 0, 0; lo < len(idx); lo = hi {
		hi = runEnd(len(idx), lo, keyAt, order)
		acc := val(idx[lo].pos)
		for _, e := range idx[lo+1 : hi] {
			acc = reduce(acc, val(e.pos))
		}
		out = append(out, emit(idx[lo].key, acc))
	}
	return out
}
