// Package tgraph is the public API of this reproduction of "Zooming Out
// on an Evolving Graph" (EDBT 2020): an evolving property graph
// (TGraph) library with four physical representations (RG, VE, OG,
// OGC), temporal attribute-based zoom (aZoom^T), temporal window-based
// zoom (wZoom^T), operator chaining with representation switching and
// lazy coalescing, a columnar storage format with predicate pushdown,
// and dataset generators modelling the paper's evaluation datasets.
//
// Quick start:
//
//	ctx := tgraph.NewContext()
//	g := tgraph.FromStates(ctx, vertices, edges)
//	schools, err := g.AZoom(tgraph.GroupByProperty("school", "school",
//		tgraph.Count("students")))
//	quarters, err := schools.WZoom(tgraph.WZoomSpec{
//		Window: tgraph.EveryN(3),
//		VQuant: tgraph.All(), EQuant: tgraph.All(),
//	})
//	result := quarters.Coalesce()
package tgraph

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/qcache"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// Core model types.
type (
	// Graph is an evolving property graph in one of the four physical
	// representations.
	Graph = core.TGraph
	// VertexID identifies a vertex.
	VertexID = core.VertexID
	// EdgeID identifies an edge.
	EdgeID = core.EdgeID
	// VertexTuple is one temporal state of a vertex.
	VertexTuple = core.VertexTuple
	// EdgeTuple is one temporal state of an edge.
	EdgeTuple = core.EdgeTuple
	// Representation enumerates the physical representations.
	Representation = core.Representation
	// AZoomSpec parameterises attribute-based zoom.
	AZoomSpec = core.AZoomSpec
	// WZoomSpec parameterises window-based zoom.
	WZoomSpec = core.WZoomSpec
	// Interval is a closed-open interval of discrete time points.
	Interval = temporal.Interval
	// Time is a discrete time point.
	Time = temporal.Time
	// Props is a property set.
	Props = props.Props
	// Value is a property value.
	Value = props.Value
	// Key is an interned property label (see KeyOf).
	Key = props.Key
	// Kind enumerates the dynamic types a property value can take.
	Kind = props.Kind
	// Quantifier is a wZoom existence quantifier.
	Quantifier = temporal.Quantifier
	// WindowSpec is a wZoom window specification.
	WindowSpec = temporal.WindowSpec
	// Context owns the dataflow worker pool and metrics.
	Context = dataflow.Context
	// Option configures a Context.
	Option = dataflow.Option
	// AggField is one aZoom aggregate output field.
	AggField = props.AggField
	// ResolveSpec picks representative attribute values per window.
	ResolveSpec = props.ResolveSpec
)

// Representation constants.
const (
	VE  = core.RepVE
	RG  = core.RepRG
	OG  = core.RepOG
	OGC = core.RepOGC
)

// NewContext creates an execution context. Parallelism and partition
// counts default to the number of CPUs.
func NewContext(opts ...dataflow.Option) *Context { return dataflow.NewContext(opts...) }

// WithParallelism bounds concurrent partition tasks.
func WithParallelism(n int) dataflow.Option { return dataflow.WithParallelism(n) }

// WithDefaultPartitions sets the default dataset partition count.
func WithDefaultPartitions(n int) dataflow.Option { return dataflow.WithDefaultPartitions(n) }

// Fault tolerance: cancellation, typed errors, and retry.

// JobError is the typed error a failed or cancelled dataflow job
// surfaces from zoom, conversion and pipeline entry points. It names
// the stage and every failed partition, and unwraps to the task causes
// and any cancellation error (errors.Is(err, context.DeadlineExceeded)
// works through it).
type JobError = dataflow.JobError

// TaskError is one partition's failure inside a JobError.
type TaskError = dataflow.TaskError

// RetryPolicy re-executes failed transient tasks with jittered
// exponential backoff.
type RetryPolicy = dataflow.RetryPolicy

// WithContext binds a standard context for cancellation; jobs check it
// between tasks. Context.Bind rebinds it later.
func WithContext(ctx context.Context) dataflow.Option { return dataflow.WithContext(ctx) }

// WithTimeout bounds all work on the context with a deadline. Call
// Context.Close to release the deadline's resources.
func WithTimeout(d time.Duration) dataflow.Option { return dataflow.WithTimeout(d) }

// WithRetry re-executes tasks failing with transient errors.
func WithRetry(p RetryPolicy) dataflow.Option { return dataflow.WithRetry(p) }

// Transient marks an error as retryable under WithRetry.
func Transient(err error) error { return dataflow.Transient(err) }

// IsTransient reports whether any error in err's tree is transient.
func IsTransient(err error) bool { return dataflow.IsTransient(err) }

// FromStates builds a TGraph (VE representation) from flat vertex and
// edge states.
func FromStates(ctx *Context, vs []VertexTuple, es []EdgeTuple) Graph {
	return core.NewVE(ctx, vs, es)
}

// Convert switches a graph to another physical representation.
func Convert(g Graph, rep Representation) (Graph, error) { return core.Convert(g, rep) }

// Validate checks the TGraph validity conditions of Definition 2.1.
func Validate(g Graph) error { return core.Validate(g) }

// New* property constructors.
var (
	// NewProps builds a property set from alternating key, value pairs.
	NewProps = props.New
	// Int, Float, Str and Bool construct property values.
	Int   = props.Int
	Float = props.Float
	Str   = props.StringVal
	Bool  = props.Bool
)

// Property key dictionary: the process-wide interning table behind
// Props (see internal/props).

// KeyOf interns a property label and returns its Key.
func KeyOf(name string) Key { return props.KeyOf(name) }

// LookupKey returns the Key for a label without interning it; a miss
// means the label has never appeared in any property set.
func LookupKey(name string) (Key, bool) { return props.LookupKey(name) }

// DictSize reports the number of property labels interned process-wide.
func DictSize() int { return props.DictSize() }

// DictNames returns the interned property labels sorted lexically.
func DictNames() []string { return props.DictNames() }

// Zoom spec helpers.

// GroupByProperty builds the common aZoom^T spec: group vertices by a
// property, produce nodes of newType named by the grouping value, and
// compute the given aggregates.
func GroupByProperty(key, newType string, agg ...AggField) AZoomSpec {
	return core.GroupByProperty(key, newType, agg...)
}

// SkolemByProperty groups vertices by one property's value.
func SkolemByProperty(key string) core.SkolemFunc { return core.SkolemByProperty(key) }

// Aggregate field constructors for aZoom^T.
var (
	Count  = props.Count
	Sum    = props.Sum
	MinOf  = props.Min
	MaxOf  = props.Max
	Avg    = props.Avg
	AnyOf  = props.Any
	Custom = props.Custom
)

// Existence quantifiers for wZoom^T.
var (
	All    = temporal.All
	Most   = temporal.Most
	Exists = temporal.Exists
)

// AtLeast retains entities whose window-coverage fraction exceeds n.
func AtLeast(n float64) (Quantifier, error) { return temporal.AtLeast(n) }

// Window specification constructors.

// EveryN tumbles windows of n time points.
func EveryN(n Time) WindowSpec { return temporal.MustEveryN(n) }

// EveryNChanges tumbles windows of n consecutive graph states.
func EveryNChanges(n int) WindowSpec { return temporal.MustEveryNChanges(n) }

// ParseWindowSpec parses "n {unit|changes}".
func ParseWindowSpec(s string) (WindowSpec, error) { return temporal.ParseWindowSpec(s) }

// ParseQuantifier parses "all", "most", "exists" or "at least n".
func ParseQuantifier(s string) (Quantifier, error) { return temporal.ParseQuantifier(s) }

// Attribute resolution policies for wZoom^T.
var (
	FirstWins = props.FirstWins
	LastWins  = props.LastWins
	AnyWins   = props.AnyWins
)

// NewInterval returns [start, end).
func NewInterval(start, end Time) (Interval, error) { return temporal.NewInterval(start, end) }

// MustInterval is NewInterval, panicking on invalid bounds.
func MustInterval(start, end Time) Interval { return temporal.MustInterval(start, end) }

// Storage: persistent graphs with predicate pushdown.

// SaveOptions configures Save.
type SaveOptions = storage.SaveOptions

// LoadOptions configures Load.
type LoadOptions = storage.LoadOptions

// ScanStats reports predicate-pushdown effectiveness.
type ScanStats = storage.ScanStats

// ScanOptions configures the parallel scan engine used by Load:
// concurrent chunk-decode workers per file (0 = GOMAXPROCS, 1 =
// sequential; results are identical at any setting) and an optional
// cancellation context for aborting in-flight decodes.
type ScanOptions = storage.ScanOptions

// Save persists a graph directory (flat + nested columnar layouts).
func Save(dir string, g Graph, opts SaveOptions) error { return storage.SaveGraph(dir, g, opts) }

// Load initialises any representation from a graph directory,
// optionally pushing a date-range filter down to the chunk zone maps.
func Load(ctx *Context, dir string, opts LoadOptions) (Graph, ScanStats, error) {
	return storage.Load(ctx, dir, opts)
}

// ImportCSV reads vertices.csv (+ optional edges.csv) from dir and
// builds a VE graph.
func ImportCSV(ctx *Context, dir string) (Graph, error) {
	vs, es, err := storage.ImportCSV(dir)
	if err != nil {
		return nil, err
	}
	return core.NewVE(ctx, vs, es), nil
}

// ExportCSV writes the graph's states as vertices.csv and edges.csv.
func ExportCSV(dir string, g Graph) error { return storage.ExportCSV(dir, g) }

// Crash consistency: every save commits by atomically writing a
// MANIFEST last, so Load can tell a complete save from an interrupted
// one. See DESIGN.md "Durability & crash consistency".

// Typed errors a Load returns for a directory that fails its
// crash-consistency check; test with errors.Is.
var (
	// ErrIncompleteSave: the directory has no valid MANIFEST (crashed
	// save, or a legacy pre-manifest directory — Permissive loads fall
	// back to reading those best-effort).
	ErrIncompleteSave = storage.ErrIncompleteSave
	// ErrManifestMismatch: the MANIFEST disagrees with the files on
	// disk (a save crashed mid-commit, or the data was damaged later).
	ErrManifestMismatch = storage.ErrManifestMismatch
)

// VerifyReport is the damage report produced by VerifyDir.
type VerifyReport = storage.VerifyReport

// VerifyDir checks a graph directory end to end: manifest validity,
// per-file sizes and CRCs, every chunk CRC, and aborted-save litter.
func VerifyDir(dir string) (VerifyReport, error) { return storage.VerifyDir(dir) }

// RepairDir removes the litter an aborted save leaves behind (stale
// *.tmp files and uncommitted orphans); it never touches committed
// data.
func RepairDir(dir string) ([]string, error) { return storage.RepairDir(dir) }

// Live ingestion: crash-safe appends through a per-directory
// write-ahead log (internal/storage/wal). Appended deltas are durable
// once Append returns (under the configured sync mode), Load replays
// any records the manifest does not subsume, and Compact folds the
// tail into a fresh columnar epoch. The log is single-writer per
// directory.

// WALDelta is one vertex or edge state appended to a graph
// directory's write-ahead log.
type WALDelta = wal.Delta

// WAL is an open, appendable write-ahead log (see Compact).
type WAL = wal.Log

// WALOptions configures the log AppendCSV opens: segment size and
// strict-vs-permissive recovery. Every append is fsynced before it is
// acked; there is no other sync mode.
type WALOptions = wal.Options

// WAL delta kinds.
const (
	WALVertex = wal.KindVertex
	WALEdge   = wal.KindEdge
)

// WALSegmentInfo is one segment's line in a WAL inspection: sequence
// span, record and byte counts, and structural status ("ok",
// "torn-tail", "torn-header", "corrupt-records", "seq-gap").
type WALSegmentInfo = wal.SegmentInfo

// InspectWAL reports the structural health of dir's WAL segments
// without mutating anything.
func InspectWAL(dir string) ([]WALSegmentInfo, error) { return wal.Inspect(dir) }

// WALReadResult is what ReadWAL decoded: the records after the
// requested floor plus whole-log counts.
type WALReadResult = wal.ReadResult

// ReadWAL decodes dir's WAL records with sequence > afterSeq, in
// sequence order. Permissive reads skip corrupt records instead of
// failing.
func ReadWAL(dir string, afterSeq uint64, permissive bool) (WALReadResult, error) {
	return wal.Read(dir, afterSeq, permissive)
}

// SubsumedWALSeq returns the highest WAL sequence the directory's
// committed manifest subsumes: records at or below it are already
// folded into the columnar epoch; records above it are pending (they
// replay on load and fold at the next compaction).
func SubsumedWALSeq(dir string) (uint64, error) {
	m, err := storage.ReadManifest(dir)
	if err != nil {
		return 0, err
	}
	return m.WALSeq, nil
}

// AppendStats reports what one AppendCSV run acked durable.
type AppendStats = storage.AppendStats

// AppendCSV streams vertices.csv (+ optional edges.csv) from the in
// directory into the write-ahead log of the existing graph directory
// dir, batch records per durable append. Never run it against a
// directory a live server is serving.
func AppendCSV(dir, in string, batch int, opts WALOptions) (AppendStats, error) {
	return storage.AppendCSV(dir, in, batch, opts)
}

// CompactResult reports what an epoch compaction did.
type CompactResult = storage.CompactResult

// Compact folds a graph directory's write-ahead log tail into a fresh
// committed epoch (transactional SaveGraph) and retires the subsumed
// segments. Pass the open log when you own one (a server compacting
// inline); pass nil to let Compact open the directory transiently —
// the caller must hold the directory's single-writer role either way.
func Compact(ctx *Context, dir string, l *WAL, opts SaveOptions) (CompactResult, error) {
	return storage.Compact(ctx, dir, l, opts)
}

// BaseStamp is Stamp without the live-WAL suffix: it identifies the
// last committed manifest epoch only, changing on saves and
// compactions but not on appends. Servers key caches on it so acked
// appends (which advance the in-memory view directly) do not force
// reloads.
func BaseStamp(dir string) (string, error) { return storage.BaseStamp(dir) }

// Serving & result caching. internal/serve (surfaced as the
// cmd/tgraph-serve binary) serves zoom queries over HTTP; the pieces
// below give library users the same result reuse without the server:
// a fingerprinted cache with singleflight deduplication, a graph
// identity token for invalidation, and per-request execution contexts
// over one shared loaded graph.

// QueryCache is a size-bounded LRU cache for query results with
// singleflight deduplication: N concurrent computations of the same
// key execute once and share the result. See CachedResult.
type QueryCache = qcache.Cache

// CacheOutcome classifies how a cached run obtained its result.
type CacheOutcome = qcache.Outcome

// Cache outcomes.
const (
	// CacheMiss: this call executed the computation.
	CacheMiss = qcache.Miss
	// CacheHit: the result was resident in the cache.
	CacheHit = qcache.Hit
	// CacheShared: the result was shared from a concurrent in-flight
	// computation of the same key.
	CacheShared = qcache.Shared
	// CachePatched: the resident result was refreshed in place by
	// incremental view maintenance (QueryCache.Patch) rather than
	// recomputed.
	CachePatched = qcache.Patched
)

// NewQueryCache returns a cache bounded to maxBytes of resident result
// bytes; maxBytes <= 0 still deduplicates concurrent computations but
// retains nothing.
func NewQueryCache(maxBytes int64) *QueryCache { return qcache.New(maxBytes) }

// CacheKey fingerprints an ordered list of canonical string parts
// (graph identity, operator chain, specs) into a collision-resistant
// cache key.
func CacheKey(parts ...string) string { return qcache.Key(parts...) }

// Stamp returns a token identifying the current contents of a saved
// graph directory: it changes whenever a save commits (the manifest's
// save epoch advances) and whenever the write-ahead log holds records
// beyond what the manifest subsumes, making it the graph-identity part
// of a cache key. A directory mid-save returns an error wrapping
// ErrIncompleteSave. See BaseStamp for the committed-epoch-only
// variant.
func Stamp(dir string) (string, error) { return storage.Stamp(dir) }

// Rebind returns a view of g whose jobs execute on ctx, sharing all
// data with the original. Use it to run concurrent queries with
// per-request deadlines over one loaded graph: binding a deadline to
// the graph's own context would race, so give each request its own
// NewContext(WithTimeout(...)) and query through the rebound view.
func Rebind(g Graph, ctx *Context) (Graph, error) { return core.Rebind(g, ctx) }
