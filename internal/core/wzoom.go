package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataflow"
	"repro/internal/graphx"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Temporal window-based zoom (wZoom^T), Section 3.2. The window
// specification materialises the temporal relation W; each entity's
// states are mapped to the windows they overlap; an existence
// quantifier decides, per window, whether the entity is retained (for
// the full window interval); resolve functions pick representative
// attribute values; and a dangling-edge check runs when the vertex
// quantifier is more restrictive than the edge quantifier. Unlike
// aZoom^T, wZoom^T computes across snapshots, so its input must be
// temporally coalesced — representations coalesce on demand (lazy
// coalescing).

// wzKey identifies one (entity, window) group.
type wzKey[ID comparable] struct {
	ID  ID
	Win int
}

// The per-window reduce (clip, quantify, resolve) lives in
// zoomstage.go as the exported WZState/WZoomReduce kernel, shared with
// the incremental maintenance engine.

// wzoomWindows materialises the window relation for a graph. Change
// points feed change-based window specs; unit specs ignore them.
func wzoomWindows(g TGraph, spec WZoomSpec) []temporal.Window {
	changePoints := changePointsOf(g.VertexStates(), g.EdgeStates())
	return spec.Window.Windows(g.Lifetime(), changePoints)
}

// WZoom over VE (Algorithm 5): join states with the window relation
// (expressed as a flatMap over overlapping windows — each state is
// copied once per window it spans, the cost the paper attributes to VE
// for small windows), group by (entity, window), filter by quantifier,
// and resolve. Dangling edges are removed with two semijoins.
func (g *VE) WZoom(spec WZoomSpec) (TGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !g.coalesced {
		// Coalescing runs dataflow jobs too, so it happens inside the
		// recursive call's guard.
		return runGuarded(g.ctx, func() (TGraph, error) {
			return g.Coalesce().(*VE).WZoom(spec)
		})
	}
	return runGuarded(g.ctx, func() (TGraph, error) { return g.wzoom(spec) })
}

func (g *VE) wzoom(spec WZoomSpec) (TGraph, error) {
	defer obs.StartSpan("wzoom.VE").End()
	wsp := obs.StartSpan("windows")
	windows := wzoomWindows(g, spec)
	wsp.End()
	if err := checkpoint(g.ctx, "wzoom.VE:vertices"); err != nil {
		return nil, err
	}

	vsp := obs.StartSpan("vertices")
	v := wzoomTuplesDataflow(g.ctx, g.v, windows, spec.VQuant, spec.VResolve,
		func(t VertexTuple) VertexID { return t.ID },
		func(t VertexTuple) temporal.Interval { return t.Interval },
		func(t VertexTuple) props.Props { return t.Props },
		func(id VertexID, iv temporal.Interval, p props.Props) VertexTuple {
			return VertexTuple{ID: id, Interval: iv, Props: p}
		})
	vsp.End()

	type eid struct {
		ID       EdgeID
		Src, Dst VertexID
	}
	if err := checkpoint(g.ctx, "wzoom.VE:edges"); err != nil {
		return nil, err
	}
	esp := obs.StartSpan("edges")
	e := wzoomTuplesDataflow(g.ctx, g.e, windows, spec.EQuant, spec.EResolve,
		func(t EdgeTuple) eid { return eid{t.ID, t.Src, t.Dst} },
		func(t EdgeTuple) temporal.Interval { return t.Interval },
		func(t EdgeTuple) props.Props { return t.Props },
		func(id eid, iv temporal.Interval, p props.Props) EdgeTuple {
			return EdgeTuple{ID: id.ID, Src: id.Src, Dst: id.Dst, Interval: iv, Props: p}
		})
	esp.End()

	if spec.VQuant.MoreRestrictiveThan(spec.EQuant) {
		if err := checkpoint(g.ctx, "wzoom.VE:dangling"); err != nil {
			return nil, err
		}
		// Two semijoins: an edge state (always a whole window) survives
		// only if both endpoints exist in the same window.
		dsp := obs.StartSpan("dangling-semijoin")
		e = dataflow.SemiJoin(e, v,
			func(t EdgeTuple) VertexID { return t.Src },
			func(t VertexTuple) VertexID { return t.ID },
			func(et EdgeTuple, vt VertexTuple) bool { return vt.Interval.Covers(et.Interval) })
		e = dataflow.SemiJoin(e, v,
			func(t EdgeTuple) VertexID { return t.Dst },
			func(t VertexTuple) VertexID { return t.ID },
			func(et EdgeTuple, vt VertexTuple) bool { return vt.Interval.Covers(et.Interval) })
		dsp.End()
	}
	return veFromDatasets(g.ctx, v, e, false), nil
}

// wzoomTuplesDataflow is the generic per-relation pipeline of
// Algorithm 5: align with windows, group, filter, resolve.
func wzoomTuplesDataflow[T any, ID comparable](
	ctx *dataflow.Context,
	d *dataflow.Dataset[T],
	windows []temporal.Window,
	q temporal.Quantifier,
	r props.ResolveSpec,
	idOf func(T) ID,
	ivOf func(T) temporal.Interval,
	propsOf func(T) props.Props,
	make_ func(ID, temporal.Interval, props.Props) T,
) *dataflow.Dataset[T] {
	br := r.Bind()
	asp := obs.StartSpan("align-clip")
	type rec = dataflow.Pair[wzKey[ID], WZState]
	aligned := dataflow.FlatMapAppend(d, func(t T, out []rec) []rec {
		iv := ivOf(t)
		for _, w := range temporal.OverlappingWindows(windows, iv) {
			out = append(out, rec{
				First: wzKey[ID]{ID: idOf(t), Win: w.Index},
				Second: WZState{
					Start:   iv.Start,
					Covered: iv.Intersect(w.Interval).Duration(),
					Props:   propsOf(t),
				},
			})
		}
		return out
	})
	asp.End()
	gsp := obs.StartSpan("group-by")
	groups := dataflow.GroupByKey(aligned, func(p rec) wzKey[ID] { return p.First })
	gsp.End()
	defer obs.StartSpan("filter-resolve").End()
	return dataflow.MapPartitions(groups, func(_ int, grs []dataflow.Group[wzKey[ID], rec]) []T {
		// One output slice and one state scratch per partition.
		out := make([]T, 0, len(grs))
		var states []WZState
		for _, gr := range grs {
			states = states[:0]
			for _, p := range gr.Values {
				states = append(states, p.Second)
			}
			w := windows[gr.Key.Win]
			if p, ok := WZoomReduce(states, w, q, br); ok {
				out = append(out, make_(gr.Key.ID, w.Interval, p))
			}
		}
		return out
	})
}

// WZoom over OG (Algorithm 6): every entity's history is recomputed
// in-place — a narrow map with no shuffle, because OG's temporal
// locality puts all states of an entity in one record. Dangling-edge
// removal intersects edge histories with endpoint histories through the
// routing table.
func (g *OG) WZoom(spec WZoomSpec) (TGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !g.coalesced {
		return runGuarded(g.Context(), func() (TGraph, error) {
			return g.Coalesce().(*OG).WZoom(spec)
		})
	}
	return runGuarded(g.Context(), func() (TGraph, error) { return g.wzoom(spec) })
}

func (g *OG) wzoom(spec WZoomSpec) (TGraph, error) {
	defer obs.StartSpan("wzoom.OG").End()
	wsp := obs.StartSpan("windows")
	windows := wzoomWindows(g, spec)
	wsp.End()
	vres, eres := spec.VResolve.Bind(), spec.EResolve.Bind()

	if err := checkpoint(g.Context(), "wzoom.OG:vertices"); err != nil {
		return nil, err
	}
	// WZoomEntity (zoomstage.go) is the per-entity kernel shared with
	// incremental maintenance: OG applies it to every entity, incr
	// re-applies it only to entities a delta touched.
	vsp := obs.StartSpan("vertices")
	newV := dataflow.Map(g.graph.Vertices(), func(v graphx.Vertex[[]HistoryItem]) graphx.Vertex[[]HistoryItem] {
		v.Attr = WZoomEntity(v.Attr, windows, spec.VQuant, vres)
		return v
	}).Filter(func(v graphx.Vertex[[]HistoryItem]) bool { return len(v.Attr) > 0 })
	vsp.End()

	if err := checkpoint(g.Context(), "wzoom.OG:edges"); err != nil {
		return nil, err
	}
	esp := obs.StartSpan("edges")
	newE := dataflow.Map(g.graph.Edges(), func(e graphx.Edge[[]HistoryItem]) graphx.Edge[[]HistoryItem] {
		e.Attr = WZoomEntity(e.Attr, windows, spec.EQuant, eres)
		return e
	}).Filter(func(e graphx.Edge[[]HistoryItem]) bool { return len(e.Attr) > 0 })
	esp.End()

	if spec.VQuant.MoreRestrictiveThan(spec.EQuant) {
		if err := checkpoint(g.Context(), "wzoom.OG:dangling"); err != nil {
			return nil, err
		}
		dsp := obs.StartSpan("dangling-intersect")
		table := make(map[VertexID][]temporal.Interval)
		for _, part := range newV.Partitions() {
			for _, v := range part {
				ivs := make([]temporal.Interval, len(v.Attr))
				for i, it := range v.Attr {
					ivs[i] = it.Interval
				}
				table[v.ID] = ivs
			}
		}
		coveredByVertex := func(id VertexID, iv temporal.Interval) bool {
			for _, viv := range table[id] {
				if viv.Covers(iv) {
					return true
				}
			}
			return false
		}
		newE = dataflow.Map(newE, func(e graphx.Edge[[]HistoryItem]) graphx.Edge[[]HistoryItem] {
			kept := make([]HistoryItem, 0, len(e.Attr))
			for _, it := range e.Attr {
				if coveredByVertex(e.Src, it.Interval) && coveredByVertex(e.Dst, it.Interval) {
					kept = append(kept, it)
				}
			}
			e.Attr = kept
			return e
		}).Filter(func(e graphx.Edge[[]HistoryItem]) bool { return len(e.Attr) > 0 })
		dsp.End()
	}
	return ogFromGraph(graphx.FromDatasets(newV, newE, g.graph.Strategy()), false), nil
}

// WZoom over RG (Algorithm 4): snapshots are grouped by the window
// containing them, per-window vertex and edge sets are aggregated with
// quantifier filtering, and one snapshot per window is emitted.
func (g *RG) WZoom(spec WZoomSpec) (TGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(g.ctx, func() (TGraph, error) { return g.wzoom(spec) })
}

func (g *RG) wzoom(spec WZoomSpec) (TGraph, error) {
	defer obs.StartSpan("wzoom.RG").End()
	wsp := obs.StartSpan("windows")
	windows := wzoomWindows(g, spec)
	wsp.End()
	vres, eres := spec.VResolve.Bind(), spec.EResolve.Bind()

	type snapRef struct {
		iv temporal.Interval
		g  *graphx.Graph[props.Props, props.Props]
	}
	gsp := obs.StartSpan("group-snapshots")
	byWin := make(map[int][]snapRef)
	for _, s := range g.snapshots {
		for _, w := range temporal.OverlappingWindows(windows, s.Interval) {
			byWin[w.Index] = append(byWin[w.Index], snapRef{iv: s.Interval, g: s.Graph})
		}
	}
	wins := make([]int, 0, len(byWin))
	for w := range byWin {
		wins = append(wins, w)
	}
	sort.Ints(wins)
	gsp.End()

	defer obs.StartSpan("reduce-windows").End()
	newSnaps := make([]Snapshot, 0, len(wins))
	for _, wi := range wins {
		// One window (one output snapshot) per cancellation check.
		if err := checkpoint(g.ctx, "wzoom.RG:window"); err != nil {
			return nil, err
		}
		w := windows[wi]
		vStates := make(map[VertexID][]WZState)
		type ekey struct {
			id       EdgeID
			src, dst VertexID
		}
		eStates := make(map[ekey][]WZState)
		for _, ref := range byWin[wi] {
			covered := ref.iv.Intersect(w.Interval).Duration()
			for _, part := range ref.g.Vertices().Partitions() {
				for _, v := range part {
					vStates[v.ID] = append(vStates[v.ID], WZState{Start: ref.iv.Start, Covered: covered, Props: v.Attr})
				}
			}
			for _, part := range ref.g.Edges().Partitions() {
				for _, e := range part {
					k := ekey{id: e.ID, src: e.Src, dst: e.Dst}
					eStates[k] = append(eStates[k], WZState{Start: ref.iv.Start, Covered: covered, Props: e.Attr})
				}
			}
		}
		keptV := make(map[VertexID]struct{})
		var svs []graphx.Vertex[props.Props]
		vids := make([]VertexID, 0, len(vStates))
		for id := range vStates {
			vids = append(vids, id)
		}
		slices.Sort(vids)
		for _, id := range vids {
			if p, ok := WZoomReduce(vStates[id], w, spec.VQuant, vres); ok {
				keptV[id] = struct{}{}
				svs = append(svs, graphx.Vertex[props.Props]{ID: id, Attr: p})
			}
		}
		var ses []graphx.Edge[props.Props]
		eks := make([]ekey, 0, len(eStates))
		for k := range eStates {
			eks = append(eks, k)
		}
		slices.SortFunc(eks, func(a, b ekey) int { return cmp.Compare(a.id, b.id) })
		dangling := spec.VQuant.MoreRestrictiveThan(spec.EQuant)
		for _, k := range eks {
			p, ok := WZoomReduce(eStates[k], w, spec.EQuant, eres)
			if !ok {
				continue
			}
			if dangling {
				if _, ok := keptV[k.src]; !ok {
					continue
				}
				if _, ok := keptV[k.dst]; !ok {
					continue
				}
			}
			ses = append(ses, graphx.Edge[props.Props]{ID: k.id, Src: k.src, Dst: k.dst, Attr: p})
		}
		if len(svs) == 0 && len(ses) == 0 {
			continue
		}
		newSnaps = append(newSnaps, Snapshot{
			Interval: w.Interval,
			Graph:    graphx.New(g.ctx, svs, ses, graphx.EdgePartition2D{}),
		})
	}
	return NewRG(g.ctx, newSnaps), nil
}

// WZoom over OGC: bitsets are recomputed per window — the new
// elementary intervals are the windows, a new bit is set when the
// quantifier accepts the covered duration of the old set bits within
// the window, and dangling-edge removal is the logical AND of the edge
// bitset with both endpoint bitsets.
func (g *OGC) WZoom(spec WZoomSpec) (TGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(g.Context(), func() (TGraph, error) { return g.wzoom(spec) })
}

func (g *OGC) wzoom(spec WZoomSpec) (TGraph, error) {
	defer obs.StartSpan("wzoom.OGC").End()
	wsp := obs.StartSpan("windows")
	windows := wzoomWindows(g, spec)
	wsp.End()
	newIvs := make([]temporal.Interval, len(windows))
	for i, w := range windows {
		newIvs[i] = w.Interval
	}

	rebits := func(old *bitset.Bitset, q temporal.Quantifier) *bitset.Bitset {
		nb := bitset.New(len(windows))
		for wi, w := range windows {
			var covered temporal.Time
			old.ForEachSet(func(i int) {
				covered += g.intervals[i].Intersect(w.Interval).Duration()
			})
			if q.Satisfied(covered, w.Interval.Duration()) {
				nb.Set(wi)
			}
		}
		return nb
	}

	if err := checkpoint(g.Context(), "wzoom.OGC:vertices"); err != nil {
		return nil, err
	}
	vsp := obs.StartSpan("vertices")
	newV := dataflow.Map(g.graph.Vertices(), func(v graphx.Vertex[OGCEntity]) graphx.Vertex[OGCEntity] {
		return graphx.Vertex[OGCEntity]{ID: v.ID, Attr: OGCEntity{Type: v.Attr.Type, Bits: rebits(v.Attr.Bits, spec.VQuant)}}
	}).Filter(func(v graphx.Vertex[OGCEntity]) bool { return v.Attr.Bits.Any() })
	vsp.End()

	if err := checkpoint(g.Context(), "wzoom.OGC:edges"); err != nil {
		return nil, err
	}
	esp := obs.StartSpan("edges")
	newE := dataflow.Map(g.graph.Edges(), func(e graphx.Edge[OGCEntity]) graphx.Edge[OGCEntity] {
		return graphx.Edge[OGCEntity]{ID: e.ID, Src: e.Src, Dst: e.Dst, Attr: OGCEntity{Type: e.Attr.Type, Bits: rebits(e.Attr.Bits, spec.EQuant)}}
	})
	esp.End()

	if spec.VQuant.MoreRestrictiveThan(spec.EQuant) {
		dsp := obs.StartSpan("dangling-and")
		table := make(map[VertexID]*bitset.Bitset)
		for _, part := range newV.Partitions() {
			for _, v := range part {
				table[v.ID] = v.Attr.Bits
			}
		}
		empty := bitset.New(len(windows))
		newE = dataflow.Map(newE, func(e graphx.Edge[OGCEntity]) graphx.Edge[OGCEntity] {
			b := e.Attr.Bits.Clone()
			src, ok1 := table[e.Src]
			dst, ok2 := table[e.Dst]
			if !ok1 || !ok2 {
				b = empty.Clone()
			} else {
				b.And(src).And(dst)
			}
			return graphx.Edge[OGCEntity]{ID: e.ID, Src: e.Src, Dst: e.Dst, Attr: OGCEntity{Type: e.Attr.Type, Bits: b}}
		})
		dsp.End()
	}
	newE = newE.Filter(func(e graphx.Edge[OGCEntity]) bool { return e.Attr.Bits.Any() })

	gx := graphx.FromDatasets(newV, newE, g.graph.Strategy())
	life := temporal.Empty
	for _, iv := range newIvs {
		life = temporal.Span(life, iv)
	}
	return &OGC{graph: gx, intervals: newIvs, lifetime: life}, nil
}
