package tgraph

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
)

// Rendering helpers: Graphviz DOT for snapshots and a textual timeline
// for whole evolving graphs — exploratory-analysis conveniences around
// the zoom workflow (zoom out, then look).

// WriteDOT renders the graph's state at time t as a Graphviz digraph.
// Vertex labels show the id and properties; edge labels show the type.
func WriteDOT(w io.Writer, g Graph, t Time) error {
	snap, ok := core.SnapshotAt(g, t)
	if !ok {
		return fmt.Errorf("tgraph: no snapshot at time %d", t)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph tgraph_at_%d {\n", t)
	fmt.Fprintf(&b, "  label=\"t=%d, interval %v\";\n", t, snap.Interval)

	type vertex struct {
		id    VertexID
		attrs Props
	}
	var vs []vertex
	for _, part := range snap.Graph.Vertices().Partitions() {
		for _, v := range part {
			vs = append(vs, vertex{v.ID, v.Attr})
		}
	}
	slices.SortFunc(vs, func(a, b vertex) int { return cmp.Compare(a.id, b.id) })
	for _, v := range vs {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v.id, fmt.Sprintf("%d\n%v", v.id, v.attrs))
	}

	type edge struct {
		id       EdgeID
		src, dst VertexID
		typ      string
	}
	var es []edge
	for _, part := range snap.Graph.Edges().Partitions() {
		for _, e := range part {
			es = append(es, edge{e.ID, e.Src, e.Dst, e.Attr.Type()})
		}
	}
	slices.SortFunc(es, func(a, b edge) int { return cmp.Compare(a.id, b.id) })
	for _, e := range es {
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", e.src, e.dst, e.typ)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteTimeline renders every entity's coalesced states as one line per
// state, sorted by entity then time — the textual analogue of the
// paper's Figure 1 drawing.
func WriteTimeline(w io.Writer, g Graph) error {
	_, _, vs, es := core.CoalescedStates(g)
	var b strings.Builder
	b.WriteString("vertices:\n")
	for _, v := range vs {
		fmt.Fprintf(&b, "  %-12d T=%-10v {%v}\n", v.ID, v.Interval, v.Props)
	}
	b.WriteString("edges:\n")
	for _, e := range es {
		fmt.Fprintf(&b, "  %-6d %d -> %-8d T=%-10v {%v}\n", e.ID, e.Src, e.Dst, e.Interval, e.Props)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
