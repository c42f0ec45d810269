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

// The per-entity kernel (clip, quantify, resolve) lives in zoomstage.go
// as wzoomRun / WZoomEntity / WZoomReduce, shared by VE, OG and — through
// Histories — the incremental maintenance engine and the shard workers.

// wzoomWindows materialises the window relation for a graph. Only
// change-based window specs read the change points, so only they pay
// for collecting the states.
func wzoomWindows(g TGraph, spec WZoomSpec) []temporal.Window {
	var changePoints []temporal.Time
	if temporal.UsesChangePoints(spec.Window) {
		changePoints = changePointsOf(g.VertexStates(), g.EdgeStates())
	}
	return spec.Window.Windows(g.Lifetime(), changePoints)
}

// WZoom over VE. Algorithm 5 as the paper states it: join the states
// with the window relation — every state is copied once per window it
// spans — group by (entity, window), filter each group by the
// quantifier, resolve, and remove dangling edges with two semijoins;
// its input must be coalesced, which on VE is one more grouping
// shuffle per relation. The paper attributes VE's wZoom cost to the
// locality that plan lacks (Section 4).
//
// What runs here computes the same relation with one shuffle per
// relation: each is grouped by entity once, a group's run is coalesced
// in place unless the input is flagged coalesced, and the windows are
// evaluated over the run by OG's per-entity kernel (wzoomRun). Change
// points come from the coalesced runs. Dangling edges are removed as on
// OG, against the vertex result gathered into a historyIndex, with no
// shuffle.
func (g *VE) WZoom(spec WZoomSpec) (TGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(g.ctx, func() (TGraph, error) { return g.wzoom(spec) })
}

func (g *VE) wzoom(spec WZoomSpec) (TGraph, error) {
	defer obs.StartSpan("wzoom.VE").End()
	gsp := obs.StartSpan("group-by")
	vg := dataflow.GroupByKey(g.v, func(t VertexTuple) VertexID { return t.ID }, cmp.Compare[VertexID])
	eg := dataflow.GroupByKey(g.e, EdgeTuple.Key, EdgeKey.compare)
	gsp.End()
	if !g.coalesced {
		csp := obs.StartSpan("coalesce.VE")
		vg = coalesceGroups(vg, vertexIv, vertexKeyCmp, vertexEq)
		eg = coalesceGroups(eg, edgeIv, edgeKeyCmp, edgeEq)
		csp.End()
	}

	wsp := obs.StartSpan("windows")
	var changePoints []temporal.Time
	if temporal.UsesChangePoints(spec.Window) {
		changePoints = temporal.Boundaries(append(groupIntervals(vg, vertexIv), groupIntervals(eg, edgeIv)...))
	}
	windows := spec.Window.Windows(g.lifetime, changePoints)
	wsp.End()

	if err := checkpoint(g.ctx, "wzoom.VE:vertices"); err != nil {
		return nil, err
	}
	vsp := obs.StartSpan("vertices")
	v := wzoomGroups(vg, windows, spec.VQuant, spec.VResolve, vertexIv, vertexProps,
		func(id VertexID, iv temporal.Interval, p props.Props) VertexTuple {
			return VertexTuple{ID: id, Interval: iv, Props: p}
		})
	vsp.End()

	if err := checkpoint(g.ctx, "wzoom.VE:edges"); err != nil {
		return nil, err
	}
	esp := obs.StartSpan("edges")
	e := wzoomGroups(eg, windows, spec.EQuant, spec.EResolve, edgeIv, edgeProps,
		func(k EdgeKey, iv temporal.Interval, p props.Props) EdgeTuple {
			return EdgeTuple{ID: k.ID, Src: k.Src, Dst: k.Dst, Interval: iv, Props: p}
		})
	esp.End()

	if spec.VQuant.MoreRestrictiveThan(spec.EQuant) {
		if err := checkpoint(g.ctx, "wzoom.VE:dangling"); err != nil {
			return nil, err
		}
		dsp := obs.StartSpan("dangling")
		x := indexTuples(v.Partitions(), v.Count())
		e = dataflow.MapPartitions(e, func(_ int, es []EdgeTuple) []EdgeTuple {
			return slices.DeleteFunc(es, func(t EdgeTuple) bool {
				return !keepsEdgeState(t.Interval, x.of(t.Src), x.of(t.Dst))
			})
		})
		dsp.End()
	}
	return veFromDatasets(g.ctx, v, e, false), nil
}

// coalesceGroups coalesces every group's run in place — GroupByKey
// hands each group a fresh run it owns — and returns the groups with
// their shortened runs.
func coalesceGroups[K comparable, T any](
	groups *dataflow.Dataset[dataflow.Group[K, T]],
	ivOf func(*T) *temporal.Interval,
	order func(a, b T) int,
	eq func(a, b T) bool,
) *dataflow.Dataset[dataflow.Group[K, T]] {
	return dataflow.MapPartitions(groups, func(_ int, grs []dataflow.Group[K, T]) []dataflow.Group[K, T] {
		for i := range grs {
			grs[i].Values = temporal.Coalesce(grs[i].Values, ivOf, order, eq)
		}
		return grs
	})
}

// groupIntervals lists the interval of every grouped state.
func groupIntervals[K comparable, T any](groups *dataflow.Dataset[dataflow.Group[K, T]], ivOf func(*T) *temporal.Interval) []temporal.Interval {
	var ivs []temporal.Interval
	for _, part := range groups.Partitions() {
		for _, gr := range part {
			for i := range gr.Values {
				ivs = append(ivs, *ivOf(&gr.Values[i]))
			}
		}
	}
	return ivs
}

// wzoomGroups evaluates the window relation over every entity's
// coalesced run: one kernel scratch and one output array per partition.
func wzoomGroups[K comparable, T any](
	groups *dataflow.Dataset[dataflow.Group[K, T]],
	windows []temporal.Window,
	q temporal.Quantifier,
	r props.ResolveSpec,
	ivOf func(*T) *temporal.Interval,
	propsOf func(*T) props.Props,
	make_ func(K, temporal.Interval, props.Props) T,
) *dataflow.Dataset[T] {
	br := r.Bind()
	return dataflow.MapPartitions(groups, func(_ int, grs []dataflow.Group[K, T]) []T {
		// An entity yields at most one state per window its run spans.
		n := 0
		for _, gr := range grs {
			span := temporal.Empty
			for i := range gr.Values {
				span = temporal.Span(span, *ivOf(&gr.Values[i]))
			}
			n += len(temporal.OverlappingWindows(windows, span))
		}
		out := make([]T, 0, n)
		var scratch []WZState
		for _, gr := range grs {
			out, scratch = wzoomRun(gr.Values, ivOf, propsOf, windows, q, br, scratch, out,
				func(iv temporal.Interval, p props.Props) T { return make_(gr.Key, iv, p) })
		}
		return out
	})
}

// WZoom over OG (Algorithm 6): every entity's history is recomputed
// in-place — a narrow map with no shuffle, because OG's temporal
// locality puts all states of an entity in one record. Dangling-edge
// removal trims each edge's history in place against the vertex result
// gathered into a historyIndex.
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
		dsp := obs.StartSpan("dangling")
		x := indexHistories(newV.Partitions(), newV.Count())
		newE = dataflow.MapPartitions(newE, func(_ int, es []graphx.Edge[[]HistoryItem]) []graphx.Edge[[]HistoryItem] {
			for i, e := range es {
				src, dst := x.of(e.Src), x.of(e.Dst)
				es[i].Attr = slices.DeleteFunc(e.Attr, func(it HistoryItem) bool {
					return !keepsEdgeState(it.Interval, src, dst)
				})
			}
			return slices.DeleteFunc(es, func(e graphx.Edge[[]HistoryItem]) bool { return len(e.Attr) == 0 })
		})
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
		eStates := make(map[EdgeKey][]WZState)
		for _, ref := range byWin[wi] {
			covered := ref.iv.Intersect(w.Interval).Duration()
			for _, part := range ref.g.Vertices().Partitions() {
				for _, v := range part {
					vStates[v.ID] = append(vStates[v.ID], WZState{Win: wi, Start: ref.iv.Start, Covered: covered, Props: v.Attr})
				}
			}
			for _, part := range ref.g.Edges().Partitions() {
				for _, e := range part {
					k := EdgeKey{ID: e.ID, Src: e.Src, Dst: e.Dst}
					eStates[k] = append(eStates[k], WZState{Win: wi, Start: ref.iv.Start, Covered: covered, Props: e.Attr})
				}
			}
		}
		keptV := make(map[VertexID]bool)
		var svs []graphx.Vertex[props.Props]
		for _, id := range sortedKeys(vStates, cmp.Compare[VertexID]) {
			if p, ok := WZoomReduce(vStates[id], w, spec.VQuant, vres); ok {
				keptV[id] = true
				svs = append(svs, graphx.Vertex[props.Props]{ID: id, Attr: p})
			}
		}
		var ses []graphx.Edge[props.Props]
		dangling := spec.VQuant.MoreRestrictiveThan(spec.EQuant)
		for _, k := range sortedKeys(eStates, EdgeKey.compare) {
			p, ok := WZoomReduce(eStates[k], w, spec.EQuant, eres)
			if !ok || dangling && !(keptV[k.Src] && keptV[k.Dst]) {
				continue
			}
			ses = append(ses, graphx.Edge[props.Props]{ID: k.ID, Src: k.Src, Dst: k.Dst, Attr: p})
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
		newE = dataflow.Map(newE, func(e graphx.Edge[OGCEntity]) graphx.Edge[OGCEntity] {
			var b *bitset.Bitset
			if src, dst := table[e.Src], table[e.Dst]; src != nil && dst != nil {
				b = e.Attr.Bits.Clone().And(src).And(dst)
			} else {
				b = bitset.New(len(windows))
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
