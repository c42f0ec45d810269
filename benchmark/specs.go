package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/temporal"
)

// spec is one distinct query of a serve workload: the operator chain,
// the endpoint that takes it and the request body, encoded once.
type spec struct {
	name  string
	steps []serve.StepRequest
	path  string
	body  []byte
}

func newSpec(graph string, steps ...serve.StepRequest) spec {
	s := spec{steps: steps}
	var req any
	switch {
	case len(steps) == 1 && steps[0].Op == "azoom":
		st := steps[0]
		s.path, req = "/v1/azoom", serve.AZoomRequest{Graph: graph, GroupBy: st.GroupBy, NewType: st.NewType, Count: st.Count}
	case len(steps) == 1 && steps[0].Op == "wzoom":
		st := steps[0]
		s.path, req = "/v1/wzoom", serve.WZoomRequest{Graph: graph, Window: st.Window, VQuant: st.VQuant, EQuant: st.EQuant, VResolve: st.VResolve, EResolve: st.EResolve}
	default:
		s.path, req = "/v1/pipeline", serve.PipelineRequest{Graph: graph, Steps: steps}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // the request types hold only strings and ints
	}
	s.body = b
	for i, st := range steps {
		if i > 0 {
			s.name += ";"
		}
		switch st.Op {
		case "range":
			s.name += fmt.Sprintf("range(%d,%d)", st.Start, st.End)
		case "azoom":
			s.name += fmt.Sprintf("azoom(%s,%s,%s)", st.GroupBy, st.NewType, st.Count)
		case "wzoom":
			s.name += fmt.Sprintf("wzoom(%s,%s,%s)", st.Window, st.VQuant, st.EQuant)
		}
	}
	return s
}

const graphName = "g"

func rangeStep(start, end int) serve.StepRequest {
	return serve.StepRequest{Op: "range", Start: int64(start), End: int64(end)}
}

func wzoomStep(units int, quant string) serve.StepRequest {
	return serve.StepRequest{Op: "wzoom", Window: fmt.Sprintf("%d units", units), VQuant: quant, EQuant: "exists", VResolve: "last", EResolve: "last"}
}

func azoomStep(groupBy, count string) serve.StepRequest {
	return serve.StepRequest{Op: "azoom", GroupBy: groupBy, Count: count}
}

// hotSpecs are the 32 distinct queries of serve-hot, ordered by
// popularity rank: full-graph wZooms and aZooms interleaved with range
// chains, so the head of the Zipf distribution holds every endpoint.
// The list does not depend on the seed; the seed draws from it.
func hotSpecs(snapshots int) []spec {
	q, h := snapshots/4, snapshots/2
	var wz, az, chains []spec
	for _, units := range []int{3, 6, 2, 4, 9, 12} {
		for _, quant := range []string{"exists", "all"} {
			wz = append(wz, newSpec(graphName, wzoomStep(units, quant)))
		}
	}
	for _, count := range []string{"members", ""} {
		for _, newType := range []string{"", "cohort"} {
			st := azoomStep("firstName", count)
			st.NewType = newType
			az = append(az, newSpec(graphName, st))
		}
	}
	for i := 0; i < 4; i++ {
		for _, units := range []int{3, 2} {
			chains = append(chains, newSpec(graphName, rangeStep(i*q, (i+1)*q), wzoomStep(units, "exists")))
		}
	}
	for i := 0; i < 2; i++ {
		for _, count := range []string{"members", ""} {
			chains = append(chains, newSpec(graphName, rangeStep(i*h, (i+1)*h), azoomStep("firstName", count)))
		}
	}
	for i := 0; i < 4; i++ {
		chains = append(chains, newSpec(graphName, rangeStep(i*q, (i+1)*q), azoomStep("firstName", "members"), wzoomStep(3, "exists")))
	}
	// Interleave: chain, wzoom, chain, azoom, ... until all are placed.
	var out []spec
	for len(wz)+len(az)+len(chains) > 0 {
		for _, src := range []*[]spec{&chains, &wz, &chains, &az} {
			if len(*src) > 0 {
				out = append(out, (*src)[0])
				*src = (*src)[1:]
			}
		}
	}
	return out
}

// churnSpecs are the 400 distinct queries of serve-churn and
// shard-scatter: 25 time ranges x 16 operator chains. The ranges are a
// quarter, a third and a half of the lifetime long, and each ends at
// the time by which a fixed share of the graph's states has started:
// 10 %, ... 100 %, evenly spread. In a graph that only grows, a range's
// work is the states that started before its end, and where those
// times fall differs by a fifth between seeds (300 persons' join times
// decide it). Anchoring the ranges to the graph's own growth gives
// every seed the same mix of work with different bounds.
func churnSpecs(d *dataset, snapshots int) []spec {
	started := make([]int, snapshots+1) // started[t] = states that start before t
	for _, v := range d.vs {
		started[min(int(v.Interval.Start)+1, snapshots)]++
	}
	for _, e := range d.es {
		started[min(int(e.Interval.Start)+1, snapshots)]++
	}
	for t := 1; t <= snapshots; t++ {
		started[t] += started[t-1]
	}
	type rng struct{ start, end int }
	var ranges []rng
	for _, frac := range []struct{ den, n int }{{4, 10}, {3, 8}, {2, 7}} {
		length := snapshots / frac.den
		end := length - 1
		for i := 0; i < frac.n; i++ {
			// The earliest end after the previous one whose share of
			// started states is nearest the target, leaving room for the
			// ranges still to place.
			target := (0.1 + 0.9*float64(i)/float64(frac.n-1)) * float64(started[snapshots])
			last := snapshots - (frac.n - 1 - i)
			best := end + 1
			for t := best; t <= last; t++ {
				if math.Abs(float64(started[t])-target) < math.Abs(float64(started[best])-target) {
					best = t
				}
			}
			end = best
			ranges = append(ranges, rng{end - length, end})
		}
	}
	chains := zoomChains()
	out := make([]spec, 0, len(ranges)*len(chains))
	for _, r := range ranges {
		for _, c := range chains {
			steps := append([]serve.StepRequest{rangeStep(r.start, r.end)}, c...)
			out = append(out, newSpec(graphName, steps...))
		}
	}
	return out
}

// zoomChains are the 16 operator chains serve-churn puts behind each of
// its ranges: 10 wZooms, 4 aZooms and 2 aZoom-then-wZoom pipelines.
func zoomChains() [][]serve.StepRequest {
	var chains [][]serve.StepRequest
	for _, units := range []int{2, 3, 4, 6, 9} {
		for _, quant := range []string{"exists", "all"} {
			chains = append(chains, []serve.StepRequest{wzoomStep(units, quant)})
		}
	}
	for _, groupBy := range []string{"firstName", "type"} {
		for _, count := range []string{"members", ""} {
			chains = append(chains, []serve.StepRequest{azoomStep(groupBy, count)})
		}
	}
	for _, units := range []int{3, 6} {
		chains = append(chains, []serve.StepRequest{azoomStep("firstName", "members"), wzoomStep(units, "exists")})
	}
	return chains
}

// scatterSpecs are the queries of shard-scatter: the 16 chains over the
// whole graph, whose first step the coordinator hands to the shards, and
// behind them the 400 range chains of serve-churn, which the shards only
// clip before the coordinator gathers the states and computes.
func scatterSpecs(d *dataset, snapshots int) []spec {
	var out []spec
	for _, c := range zoomChains() {
		out = append(out, newSpec(graphName, c...))
	}
	return append(out, churnSpecs(d, snapshots)...)
}

// ingestSpecs are the 16 chains the ingest-mixed reader cycles over:
// 4 full-graph zooms the server keeps as incrementally maintained
// views, 8 range chains over old history that no frontier append
// touches, and 4 range chains that overlap the append frontier and are
// invalidated by nearly every batch.
func ingestSpecs(snapshots int) (views, old, frontier []spec) {
	views = []spec{
		newSpec(graphName, wzoomStep(3, "exists")),
		newSpec(graphName, azoomStep("firstName", "members")),
		newSpec(graphName, wzoomStep(6, "all")),
		newSpec(graphName, azoomStep("firstName", "")),
	}
	oldEnd := snapshots * 2 / 3
	for i := 0; i < 8; i++ {
		start := i * (oldEnd - 6) / 7
		chain := wzoomStep(3, "exists")
		if i%2 == 1 {
			chain = azoomStep("firstName", "members")
		}
		old = append(old, newSpec(graphName, rangeStep(start, start+6), chain))
	}
	for i := 0; i < 4; i++ {
		start := snapshots - 6 - 2*i
		chain := wzoomStep(2, "exists")
		if i%2 == 1 {
			chain = azoomStep("firstName", "members")
		}
		frontier = append(frontier, newSpec(graphName, rangeStep(start, snapshots+4), chain))
	}
	return views, old, frontier
}

// directStep is one operator of a spec in the form the library takes
// it: the benchmark's own translation of a StepRequest, used by the
// probes that call core and shard with the very chain a request named.
type directStep struct {
	az    *core.AZoomSpec
	wz    *core.WZoomSpec
	clip  temporal.Interval
	apply func(core.TGraph) (core.TGraph, error)
}

func directSteps(steps []serve.StepRequest) ([]directStep, error) {
	out := make([]directStep, 0, len(steps))
	for _, st := range steps {
		switch st.Op {
		case "azoom":
			newType := st.NewType
			if newType == "" {
				newType = st.GroupBy + "-group"
			}
			var aggs []props.AggField
			if st.Count != "" {
				aggs = append(aggs, props.Count(st.Count))
			}
			az := core.GroupByProperty(st.GroupBy, newType, aggs...)
			out = append(out, directStep{az: &az, apply: func(g core.TGraph) (core.TGraph, error) { return g.AZoom(az) }})
		case "wzoom":
			wz, err := wzoomSpec(st)
			if err != nil {
				return nil, err
			}
			out = append(out, directStep{wz: &wz, apply: func(g core.TGraph) (core.TGraph, error) { return g.WZoom(wz) }})
		case "range":
			iv := temporal.MustInterval(temporal.Time(st.Start), temporal.Time(st.End))
			out = append(out, directStep{clip: iv, apply: func(g core.TGraph) (core.TGraph, error) { return clipGraph(g, iv), nil }})
		default:
			return nil, fmt.Errorf("spec step %q has no direct form", st.Op)
		}
	}
	return out, nil
}

func wzoomSpec(st serve.StepRequest) (core.WZoomSpec, error) {
	w, err := temporal.ParseWindowSpec(st.Window)
	if err != nil {
		return core.WZoomSpec{}, err
	}
	vq, err := temporal.ParseQuantifier(st.VQuant)
	if err != nil {
		return core.WZoomSpec{}, err
	}
	eq, err := temporal.ParseQuantifier(st.EQuant)
	if err != nil {
		return core.WZoomSpec{}, err
	}
	vr, err := props.ParseResolver(st.VResolve)
	if err != nil {
		return core.WZoomSpec{}, err
	}
	er, err := props.ParseResolver(st.EResolve)
	if err != nil {
		return core.WZoomSpec{}, err
	}
	return core.WZoomSpec{Window: w, VQuant: vq, EQuant: eq,
		VResolve: props.ResolveSpec{Default: vr}, EResolve: props.ResolveSpec{Default: er}}, nil
}

// clipGraph restricts a VE graph to the states overlapping iv, clipped,
// as a range step and a range load do.
func clipGraph(g core.TGraph, iv temporal.Interval) core.TGraph {
	var vs []core.VertexTuple
	for _, v := range g.VertexStates() {
		if v.Interval.Overlaps(iv) {
			v.Interval = v.Interval.Intersect(iv)
			vs = append(vs, v)
		}
	}
	var es []core.EdgeTuple
	for _, e := range g.EdgeStates() {
		if e.Interval.Overlaps(iv) {
			e.Interval = e.Interval.Intersect(iv)
			es = append(es, e)
		}
	}
	return core.NewVE(g.Context(), vs, es)
}

// runDirect applies the chain to g and materialises the coalesced
// result, the library-level equivalent of one cold request without the
// JSON encoding.
func runDirect(g core.TGraph, steps []directStep) (core.TGraph, error) {
	out := g
	for _, st := range steps {
		var err error
		if out, err = st.apply(out); err != nil {
			return nil, err
		}
	}
	return out.Coalesce(), nil
}

// shardQuery is the chain in the coordinator's form, as the serving
// layer would decompose it: the first step travels to the shards, the
// rest runs over the merged graph.
func shardQuery(name string, steps []directStep) shard.Query {
	q := shard.Query{Rep: core.RepVE, Canon: name}
	first, rest := steps[0], steps[1:]
	switch {
	case first.az != nil:
		q.AZ, q.First = first.az, first.apply
	case first.wz != nil:
		q.WZ, q.First = first.wz, first.apply
	default:
		q.Clip = first.clip
	}
	for _, st := range rest {
		q.Tail = append(q.Tail, st.apply)
	}
	return q
}
