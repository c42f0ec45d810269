package dataflow

// Dataset is a horizontally partitioned, immutable collection of
// records of type T, bound to the Context that executes operations over
// it. Transformations never mutate their input dataset.
type Dataset[T any] struct {
	ctx   *Context
	parts [][]T
}

// Parallelize distributes data round-robin-by-range over numPartitions
// partitions. numPartitions <= 0 selects the context default. The input
// slice is referenced, not copied; callers must not mutate it
// afterwards.
func Parallelize[T any](ctx *Context, data []T, numPartitions int) *Dataset[T] {
	if numPartitions <= 0 {
		numPartitions = ctx.defaultPart
	}
	if numPartitions > len(data) {
		numPartitions = max(1, len(data))
	}
	parts := make([][]T, numPartitions)
	chunk := (len(data) + numPartitions - 1) / numPartitions
	for i := range parts {
		lo := i * chunk
		hi := min(lo+chunk, len(data))
		if lo > len(data) {
			lo = len(data)
		}
		parts[i] = data[lo:hi:hi]
	}
	return &Dataset[T]{ctx: ctx, parts: parts}
}

// FromPartitions wraps pre-partitioned data as a Dataset. The slices
// are referenced, not copied.
func FromPartitions[T any](ctx *Context, parts [][]T) *Dataset[T] {
	if len(parts) == 0 {
		parts = [][]T{nil}
	}
	return &Dataset[T]{ctx: ctx, parts: parts}
}

// Empty returns an empty dataset with one empty partition.
func Empty[T any](ctx *Context) *Dataset[T] {
	return &Dataset[T]{ctx: ctx, parts: [][]T{nil}}
}

// Rebind returns a view of d bound to a different execution context:
// the partitions are shared unchanged, only the Context executing
// subsequent transformations differs. Context.Bind swaps the
// cancellation scope for every job on that context, so concurrent
// callers sharing one loaded dataset would race their deadlines
// through it; Rebind lets each caller derive a per-request view on a
// fresh Context instead.
func Rebind[T any](d *Dataset[T], ctx *Context) *Dataset[T] {
	if d == nil || d.ctx == ctx {
		return d
	}
	return &Dataset[T]{ctx: ctx, parts: d.parts}
}

// Context returns the owning execution context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// NumPartitions returns the number of partitions.
func (d *Dataset[T]) NumPartitions() int { return len(d.parts) }

// Partitions exposes the raw partitions. Callers must treat the
// returned slices as read-only.
func (d *Dataset[T]) Partitions() [][]T { return d.parts }

// Count returns the total number of records.
func (d *Dataset[T]) Count() int {
	n := 0
	for _, p := range d.parts {
		n += len(p)
	}
	return n
}

// Collect gathers all records into a single slice, in partition order.
func (d *Dataset[T]) Collect() []T {
	out := make([]T, 0, d.Count())
	for _, p := range d.parts {
		out = append(out, p...)
	}
	return out
}

// Filter returns the records satisfying pred, preserving partitioning.
func (d *Dataset[T]) Filter(pred func(T) bool) *Dataset[T] {
	out := make([][]T, len(d.parts))
	d.ctx.runTasks("filter", len(d.parts), func(i int) {
		var kept []T
		for _, rec := range d.parts[i] {
			if pred(rec) {
				kept = append(kept, rec)
			}
		}
		out[i] = kept
	})
	return &Dataset[T]{ctx: d.ctx, parts: out}
}

// Map applies f to every record. It is a narrow transformation.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	out := make([][]U, len(d.parts))
	d.ctx.runTasks("map", len(d.parts), func(i int) {
		p := make([]U, len(d.parts[i]))
		for j, rec := range d.parts[i] {
			p[j] = f(rec)
		}
		out[i] = p
	})
	return &Dataset[U]{ctx: d.ctx, parts: out}
}

// FilterMap applies f to every record, keeping the results with ok
// true. It is a narrow transformation, equivalent to a FlatMap emitting
// zero or one record but without the per-record slice allocation.
func FilterMap[T, U any](d *Dataset[T], f func(T) (U, bool)) *Dataset[U] {
	out := make([][]U, len(d.parts))
	d.ctx.runTasks("filtermap", len(d.parts), func(i int) {
		p := make([]U, 0, len(d.parts[i]))
		for _, rec := range d.parts[i] {
			if u, ok := f(rec); ok {
				p = append(p, u)
			}
		}
		out[i] = p
	})
	return &Dataset[U]{ctx: d.ctx, parts: out}
}

// FlatMap applies f to every record and concatenates the results within
// each partition. It is a narrow transformation.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	return FlatMapAppend(d, func(rec T, out []U) []U { return append(out, f(rec)...) })
}

// FlatMapAppend is FlatMap in append style: f appends the records it
// emits for rec to out and returns the extended slice, so a partition's
// output is built in one growing array instead of one result slice per
// record. f must only append to out — it must not retain or reorder it.
func FlatMapAppend[T, U any](d *Dataset[T], f func(rec T, out []U) []U) *Dataset[U] {
	out := make([][]U, len(d.parts))
	d.ctx.runTasks("flatmap", len(d.parts), func(i int) {
		p := make([]U, 0, len(d.parts[i]))
		for _, rec := range d.parts[i] {
			p = f(rec, p)
		}
		out[i] = p
	})
	return &Dataset[U]{ctx: d.ctx, parts: out}
}

// MapPartitions transforms each partition wholesale, allowing
// partition-local state (e.g. local combiners).
func MapPartitions[T, U any](d *Dataset[T], f func(part int, recs []T) []U) *Dataset[U] {
	out := make([][]U, len(d.parts))
	d.ctx.runTasks("mappartitions", len(d.parts), func(i int) {
		out[i] = f(i, d.parts[i])
	})
	return &Dataset[U]{ctx: d.ctx, parts: out}
}

// Union concatenates two datasets partition-wise (a narrow union, as in
// Spark).
func Union[T any](a, b *Dataset[T]) *Dataset[T] {
	parts := make([][]T, 0, len(a.parts)+len(b.parts))
	parts = append(parts, a.parts...)
	parts = append(parts, b.parts...)
	return &Dataset[T]{ctx: a.ctx, parts: parts}
}
