// Package core implements the paper's contribution: the TGraph evolving
// property graph model, its four physical representations (RG, VE, OG,
// OGC), and the two zoom operators — temporal attribute-based zoom
// (aZoom^T) and temporal window-based zoom (wZoom^T) — expressed as
// dataflow operations tailored to each representation.
//
// A TGraph (Definition 2.1) associates periods of validity with graph
// nodes, edges and their properties, under point semantics: a valid
// TGraph conceptually corresponds to a sequence of valid conventional
// property graphs, one per time point. Intervals are a syntactic
// compaction of adjacent time points.
//
// Representations and locality:
//
//	RG  — a sequence of snapshot graphs (structural locality, not compact)
//	VE  — flat temporal vertex and edge relations (compact, no locality)
//	OG  — one graph, per-entity history arrays (temporal + structural locality)
//	OGC — one graph, presence bitsets, topology only (most compact, no attributes)
package core

import (
	"cmp"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/graphx"
	"repro/internal/props"
	"repro/internal/temporal"
)

// propsT abbreviates the property-map type in generic instantiations.
type propsT = props.Props

// VertexID identifies a vertex; it aliases the graphx identifier type
// so that representations built on the graphx layer interoperate
// without conversion (the paper keeps long ids for the same reason).
type VertexID = graphx.VertexID

// EdgeID identifies an edge. TGraph is a multigraph: edge identity is
// separate from endpoints.
type EdgeID = graphx.EdgeID

// Representation enumerates the physical TGraph representations.
type Representation int

const (
	// RepVE is the Vertex-Edge nested temporal relational representation.
	RepVE Representation = iota
	// RepRG is the Representative-Graphs (snapshot sequence) representation.
	RepRG
	// RepOG is the One-Graph representation with history arrays.
	RepOG
	// RepOGC is the One-Graph-Columnar topology-only representation.
	RepOGC
)

// String returns the paper's abbreviation for the representation.
func (r Representation) String() string {
	switch r {
	case RepVE:
		return "VE"
	case RepRG:
		return "RG"
	case RepOG:
		return "OG"
	case RepOGC:
		return "OGC"
	default:
		return fmt.Sprintf("Representation(%d)", int(r))
	}
}

// VertexTuple is one temporal state of a vertex: the VE relation's row,
// and the canonical interchange record between representations.
type VertexTuple struct {
	ID       VertexID
	Interval temporal.Interval
	Props    props.Props
}

// EdgeTuple is one temporal state of an edge.
type EdgeTuple struct {
	ID       EdgeID
	Src, Dst VertexID
	Interval temporal.Interval
	Props    props.Props
}

// EdgeKey identifies an edge entity: its id and both endpoints. Edge
// states merge only within one key (edgeEq compares the endpoints), so
// every per-entity stage groups edge states by it, and an edge id seen
// between two vertex pairs is two entities.
type EdgeKey struct {
	ID       EdgeID
	Src, Dst VertexID
}

// Key returns the edge entity the state belongs to.
func (t EdgeTuple) Key() EdgeKey { return EdgeKey{ID: t.ID, Src: t.Src, Dst: t.Dst} }

// compare orders edge entities by id, then source, then destination.
func (k EdgeKey) compare(o EdgeKey) int {
	switch {
	case k.ID != o.ID:
		return cmp.Compare(k.ID, o.ID)
	case k.Src != o.Src:
		return cmp.Compare(k.Src, o.Src)
	}
	return cmp.Compare(k.Dst, o.Dst)
}

// state returns entity k's edge state over one history item.
func (k EdgeKey) state(h HistoryItem) EdgeTuple {
	return EdgeTuple{ID: k.ID, Src: k.Src, Dst: k.Dst, Interval: h.Interval, Props: h.Props}
}

// TGraph is an evolving property graph in one of the four physical
// representations. Implementations are immutable: operators return new
// graphs.
type TGraph interface {
	// Rep identifies the physical representation.
	Rep() Representation
	// Context returns the dataflow execution context.
	Context() *dataflow.Context
	// Lifetime returns the smallest interval covering every state.
	Lifetime() temporal.Interval
	// VertexStates returns the graph's vertex states as flat tuples
	// (the canonical interchange form; for OGC, with only the type
	// property). Their order is unspecified — it follows the engine's
	// partitioning, which differs between representations, operators
	// and runs — so callers that print or compare states sort them.
	VertexStates() []VertexTuple
	// EdgeStates returns the edge states as flat tuples, in unspecified
	// order like VertexStates.
	EdgeStates() []EdgeTuple
	// NumVertices returns the number of distinct vertex ids.
	NumVertices() int
	// NumEdges returns the number of distinct edge ids.
	NumEdges() int
	// IsCoalesced reports whether the graph is known to be temporally
	// coalesced. aZoom^T leaves its output uncoalesced (lazy
	// coalescing); wZoom^T coalesces its input on demand.
	IsCoalesced() bool
	// Coalesce returns a temporally coalesced equivalent: every vertex
	// and edge represented by states of maximal length during which no
	// change occurred.
	Coalesce() TGraph
	// AZoom applies temporal attribute-based zoom.
	AZoom(spec AZoomSpec) (TGraph, error)
	// WZoom applies temporal window-based zoom.
	WZoom(spec WZoomSpec) (TGraph, error)
}

// ErrUnsupported is returned by operations a representation cannot
// express (aZoom^T over OGC, which stores no attributes).
type ErrUnsupported struct {
	Rep Representation
	Op  string
}

// Error implements error.
func (e ErrUnsupported) Error() string {
	return fmt.Sprintf("core: representation %s does not support %s", e.Rep, e.Op)
}

// SkolemFunc assigns a new vertex identity to each (vertex id,
// properties) state; it must generate consistent assignments across
// time (a pure function of its arguments). Returning ok=false excludes
// the state from the zoomed graph (e.g. a person with no school when
// zooming to schools).
type SkolemFunc func(id VertexID, p props.Props) (VertexID, bool)

// NewPropsFunc computes the identifying properties of a newly created
// vertex from one contributing input state (e.g. {type: school, name:
// MIT}). All states mapping to the same Skolem id must produce equal
// identifying properties.
type NewPropsFunc func(id VertexID, p props.Props) props.Props

// EdgeSkolemFunc assigns identity to zoomed edges. The default derives
// a deterministic id from (input edge id, new src, new dst), because an
// input edge whose endpoint changes groups over time yields several
// output edges.
type EdgeSkolemFunc func(id EdgeID, newSrc, newDst VertexID) EdgeID

// AZoomSpec parameterises aZoom^T.
type AZoomSpec struct {
	// Skolem is f_s, the new-vertex identity function. Required.
	Skolem SkolemFunc
	// NewProps derives the identifying properties of new vertices.
	// Optional; defaults to an empty property set plus whatever Agg
	// computes. The reserved type property should be set here. The
	// result must be a function of the new (Skolem) identity alone: the
	// zoom invokes it once per output vertex with an arbitrary
	// contributing input state.
	NewProps NewPropsFunc
	// Agg is f_agg, resolving groups of identity-equivalent vertices
	// within a snapshot and computing aggregate properties.
	Agg props.AggSpec
	// EdgeSkolem assigns output edge identity; nil selects the default.
	EdgeSkolem EdgeSkolemFunc
}

// Validate checks the spec.
func (s AZoomSpec) Validate() error {
	if s.Skolem == nil {
		return fmt.Errorf("core: aZoom spec needs a Skolem function")
	}
	return s.Agg.Validate()
}

func (s AZoomSpec) edgeSkolem() EdgeSkolemFunc {
	if s.EdgeSkolem != nil {
		return s.EdgeSkolem
	}
	return func(id EdgeID, src, dst VertexID) EdgeID {
		h := mix64(uint64(id)) ^ mix64(uint64(src)*0x9e3779b97f4a7c15) ^ mix64(uint64(dst)*0xc2b2ae3d27d4eb4f)
		return EdgeID(int64(h &^ (1 << 63)))
	}
}

func (s AZoomSpec) newProps(id VertexID, p props.Props) props.Props {
	if s.NewProps == nil {
		return props.Props{}
	}
	return s.NewProps(id, p)
}

// mix64 is a splitmix64 finalizer used for deterministic id hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a, used by property-based Skolem helpers.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// SkolemByProperty returns a Skolem function that groups vertices by
// the value of one property, declining states lacking it. Identity is a
// hash of the value (collisions are possible but astronomically
// unlikely for realistic cardinalities).
func SkolemByProperty(key string) SkolemFunc {
	return func(_ VertexID, p props.Props) (VertexID, bool) {
		v, ok := p.Get(key)
		if !ok || v.IsNil() {
			return 0, false
		}
		return VertexID(int64(hashString(v.String()) &^ (1 << 63))), true
	}
}

// GroupByProperty builds the common aZoom^T specification of the
// paper's running example: group vertices by property key, produce new
// vertices of type newType carrying the grouping value under the name
// property, and compute the given aggregates.
func GroupByProperty(key, newType string, agg ...props.AggField) AZoomSpec {
	return AZoomSpec{
		Skolem: SkolemByProperty(key),
		NewProps: func(_ VertexID, p props.Props) props.Props {
			v, _ := p.Get(key)
			return props.New(props.TypeKey, newType, "name", v)
		},
		Agg: props.AggSpec{Fields: agg},
	}
}

// WZoomSpec parameterises wZoom^T.
type WZoomSpec struct {
	// Window is the tumbling window specification. Required.
	Window temporal.WindowSpec
	// VQuant and EQuant are the vertex and edge existence quantifiers.
	// Zero values are the paper's existential default.
	VQuant temporal.Quantifier
	EQuant temporal.Quantifier
	// VResolve and EResolve pick representative attribute values per
	// window. Zero values are the paper's "any" default.
	VResolve props.ResolveSpec
	EResolve props.ResolveSpec
}

// Validate checks the spec.
func (s WZoomSpec) Validate() error {
	if s.Window == nil {
		return fmt.Errorf("core: wZoom spec needs a window specification")
	}
	return nil
}

// The accessors temporal.Coalesce folds each entity's states with: the
// address of a state's interval and, below, the total orders
// (vertexKeyCmp, edgeKeyCmp, historyCmp) and the value-equivalence
// predicates.
func vertexIv(t *VertexTuple) *temporal.Interval  { return &t.Interval }
func edgeIv(t *EdgeTuple) *temporal.Interval      { return &t.Interval }
func historyIv(h *HistoryItem) *temporal.Interval { return &h.Interval }

// The same states' property sets, for the wZoom kernel.
func vertexProps(t *VertexTuple) props.Props  { return t.Props }
func edgeProps(t *EdgeTuple) props.Props      { return t.Props }
func historyProps(h *HistoryItem) props.Props { return h.Props }

func historyCmp(a, b HistoryItem) int { return a.Interval.Compare(b.Interval) }

// The listing order across entities (SortedCoalesced): entity key
// first, then interval. They return at the first field that differs —
// a response sorts every state it lists with them. Within one entity
// they order by interval, so they are the coalescing order too, and an
// edge id's states between different vertex pairs never interleave.
func vertexKeyCmp(a, b VertexTuple) int {
	if a.ID != b.ID {
		return cmp.Compare(a.ID, b.ID)
	}
	return a.Interval.Compare(b.Interval)
}
func edgeKeyCmp(a, b EdgeTuple) int {
	switch {
	case a.ID != b.ID:
		return cmp.Compare(a.ID, b.ID)
	case a.Src != b.Src:
		return cmp.Compare(a.Src, b.Src)
	case a.Dst != b.Dst:
		return cmp.Compare(a.Dst, b.Dst)
	}
	return a.Interval.Compare(b.Interval)
}

func vertexEq(a, b VertexTuple) bool {
	return a.ID == b.ID && a.Props.Equal(b.Props)
}

func edgeEq(a, b EdgeTuple) bool {
	return a.ID == b.ID && a.Src == b.Src && a.Dst == b.Dst && a.Props.Equal(b.Props)
}

func historyEq(a, b HistoryItem) bool { return a.Props.Equal(b.Props) }

// lifetimeOf computes the smallest interval covering all states.
func lifetimeOf(vs []VertexTuple, es []EdgeTuple) temporal.Interval {
	life := temporal.Empty
	for _, v := range vs {
		life = temporal.Span(life, v.Interval)
	}
	for _, e := range es {
		life = temporal.Span(life, e.Interval)
	}
	return life
}

// changePointsOf returns the sorted interior boundaries of the graph's
// states: the time points at which some entity changed. They delimit
// the graph's snapshots and feed change-based window specs.
func changePointsOf(vs []VertexTuple, es []EdgeTuple) []temporal.Time {
	ivs := make([]temporal.Interval, 0, len(vs)+len(es))
	for _, v := range vs {
		ivs = append(ivs, v.Interval)
	}
	for _, e := range es {
		ivs = append(ivs, e.Interval)
	}
	return temporal.Boundaries(ivs)
}

// distinctVertexCount returns the number of distinct vertex ids among
// the tuples.
func distinctVertexCount(vs []VertexTuple) int {
	seen := make(map[VertexID]struct{}, len(vs))
	for _, v := range vs {
		seen[v.ID] = struct{}{}
	}
	return len(seen)
}

// distinctEdgeCount returns the number of distinct edge ids.
func distinctEdgeCount(es []EdgeTuple) int {
	seen := make(map[EdgeID]struct{}, len(es))
	for _, e := range es {
		seen[e.ID] = struct{}{}
	}
	return len(seen)
}
