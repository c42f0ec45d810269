package core

import (
	"fmt"
)

// Conversions between physical representations. The paper's API
// supports switching representation mid-query (Section 5.3 evaluates
// chains like VE-OG); these functions implement the switches via the
// canonical flat-state interchange form.

// ToVE converts any TGraph to the Vertex-Edge representation. The
// coalescing state is preserved.
func ToVE(g TGraph) *VE {
	if ve, ok := g.(*VE); ok {
		return ve
	}
	ve := NewVE(g.Context(), g.VertexStates(), g.EdgeStates())
	ve.coalesced = g.IsCoalesced()
	return ve
}

// ToOG converts any TGraph to the One-Graph representation, grouping
// flat states into per-entity history arrays.
func ToOG(g TGraph) *OG {
	if og, ok := g.(*OG); ok {
		return og
	}
	vstates := g.VertexStates()
	estates := g.EdgeStates()

	vhist := make(map[VertexID][]HistoryItem)
	var vorder []VertexID
	for _, v := range vstates {
		if _, ok := vhist[v.ID]; !ok {
			vorder = append(vorder, v.ID)
		}
		vhist[v.ID] = append(vhist[v.ID], HistoryItem{Interval: v.Interval, Props: v.Props})
	}
	ehist := make(map[EdgeKey][]HistoryItem)
	var eorder []EdgeKey
	for _, e := range estates {
		k := e.Key()
		if _, ok := ehist[k]; !ok {
			eorder = append(eorder, k)
		}
		ehist[k] = append(ehist[k], HistoryItem{Interval: e.Interval, Props: e.Props})
	}

	vs := make([]OGVertex, 0, len(vorder))
	for _, id := range vorder {
		vs = append(vs, OGVertex{ID: id, History: sortHistory(vhist[id])})
	}
	es := make([]OGEdge, 0, len(eorder))
	for _, k := range eorder {
		es = append(es, OGEdge{ID: k.ID, Src: k.Src, Dst: k.Dst, History: sortHistory(ehist[k])})
	}
	og := NewOG(g.Context(), vs, es)
	og.coalesced = g.IsCoalesced()
	return og
}

// ToRG converts any TGraph to the Representative-Graphs representation,
// materialising one snapshot per elementary interval.
func ToRG(g TGraph) *RG {
	if rg, ok := g.(*RG); ok {
		return rg
	}
	return rgFromStates(g.Context(), g.VertexStates(), g.EdgeStates())
}

// ToOGC converts any TGraph to the One-Graph-Columnar representation,
// discarding all attributes except the type label.
func ToOGC(g TGraph) *OGC {
	if ogc, ok := g.(*OGC); ok {
		return ogc
	}
	return NewOGC(g.Context(), g.VertexStates(), g.EdgeStates())
}

// Convert switches g to the requested representation. Conversions run
// dataflow jobs (graph construction partitions the states), so they
// execute under the same guard as the zoom operators: engine failures
// and cancellation return as errors.
func Convert(g TGraph, rep Representation) (TGraph, error) {
	return runGuarded(g.Context(), func() (TGraph, error) {
		switch rep {
		case RepVE:
			return ToVE(g), nil
		case RepRG:
			return ToRG(g), nil
		case RepOG:
			return ToOG(g), nil
		case RepOGC:
			return ToOGC(g), nil
		default:
			return nil, fmt.Errorf("core: unknown representation %d", int(rep))
		}
	})
}
