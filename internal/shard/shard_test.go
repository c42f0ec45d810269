package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/temporal"
)

// genGraph builds a deterministic temporal graph: vertices carrying a
// dept property (the aZoom grouping key) and a score, edges between
// random endpoints, both with 1-3 fragmented states — fragmentation
// included on purpose, the merges must be insensitive to it.
func genGraph(nv, ne int) ([]core.VertexTuple, []core.EdgeTuple) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state % n
	}
	var vs []core.VertexTuple
	for i := 0; i < nv; i++ {
		id := core.VertexID(i + 1)
		dept := fmt.Sprintf("d%d", next(5))
		states := int(next(3)) + 1
		for s := 0; s < states; s++ {
			start := temporal.Time(next(90))
			end := start + temporal.Time(next(10)) + 1
			vs = append(vs, core.VertexTuple{
				ID:       id,
				Interval: temporal.Interval{Start: start, End: end},
				Props:    props.New("dept", dept, "score", fmt.Sprint(next(100))),
			})
		}
	}
	var es []core.EdgeTuple
	for i := 0; i < ne; i++ {
		src := core.VertexID(next(uint64(nv)) + 1)
		dst := core.VertexID(next(uint64(nv)) + 1)
		states := int(next(2)) + 1
		for s := 0; s < states; s++ {
			start := temporal.Time(next(90))
			end := start + temporal.Time(next(10)) + 1
			es = append(es, core.EdgeTuple{
				ID: core.EdgeID(i + 1), Src: src, Dst: dst,
				Interval: temporal.Interval{Start: start, End: end},
				Props:    props.New("w", fmt.Sprint(next(9))),
			})
		}
	}
	return vs, es
}

// canon renders a graph in the serving layer's canonical form:
// coalesced states, sorted, plus the lifetime — the byte-identity
// equivalence the coordinator guarantees.
func canon(t *testing.T, g core.TGraph) string {
	t.Helper()
	c := g.Coalesce()
	vs := c.VertexStates()
	es := c.EdgeStates()
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Interval.Start != b.Interval.Start {
			return a.Interval.Start < b.Interval.Start
		}
		return a.Interval.End < b.Interval.End
	})
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Interval.Start != b.Interval.Start {
			return a.Interval.Start < b.Interval.Start
		}
		return a.Interval.End < b.Interval.End
	})
	out := fmt.Sprintf("life=%v\n", c.Lifetime())
	for _, v := range vs {
		out += fmt.Sprintf("v %d %v %v\n", v.ID, v.Interval, v.Props)
	}
	for _, e := range es {
		out += fmt.Sprintf("e %d %d->%d %v %v\n", e.ID, e.Src, e.Dst, e.Interval, e.Props)
	}
	return out
}

func azSpec() core.AZoomSpec {
	return core.GroupByProperty("dept", "group",
		props.Count("members"), props.Sum("total", "score"), props.Min("lo", "score"))
}

func wzSpec(window temporal.WindowSpec, dangling bool) core.WZoomSpec {
	s := core.WZoomSpec{Window: window}
	if dangling {
		s.VQuant = temporal.All()
		s.EQuant = temporal.Exists()
	}
	return s
}

// TestSplitLossless asserts every input state lands in exactly one
// part's Masters/Edges for every shard count.
func TestSplitLossless(t *testing.T) {
	vs, es := genGraph(60, 120)
	for _, n := range []int{1, 2, 3, 4, 7} {
		parts, _ := Split(vs, es, VertexCut{}, n)
		nv, ne := 0, 0
		for _, p := range parts {
			nv += len(p.Masters)
			ne += len(p.Edges)
		}
		if nv != len(vs) || ne != len(es) {
			t.Fatalf("n=%d: split not lossless: %d/%d vertices, %d/%d edges",
				n, nv, len(vs), ne, len(es))
		}
	}
}

// runBoth runs the same query sharded and unsharded and compares the
// canonical forms.
func runBoth(t *testing.T, name string, vs []core.VertexTuple, es []core.EdgeTuple, n int, q Query, direct func(core.TGraph) (core.TGraph, error)) {
	t.Helper()
	dctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer dctx.Close()
	want, err := direct(core.NewVE(dctx, vs, es))
	if err != nil {
		t.Fatalf("%s: direct: %v", name, err)
	}
	c := NewFromStates(vs, es, VertexCut{}, n, Options{Parallelism: 2})
	defer c.Close()
	got, stats, err := c.Run(context.Background(), dctx, q)
	if err != nil {
		t.Fatalf("%s: sharded: %v", name, err)
	}
	if stats.N != n || stats.OK != n {
		t.Fatalf("%s: stats = %+v, want full %d/%d", name, stats, n, n)
	}
	if g, w := canon(t, got), canon(t, want); g != w {
		t.Errorf("%s (n=%d): sharded output differs\n--- got ---\n%s--- want ---\n%s", name, n, g, w)
	}
}

// TestAZoomByteIdentity covers the shard-side aZoom path against the
// batch kernel.
func TestAZoomByteIdentity(t *testing.T) {
	vs, es := genGraph(60, 120)
	spec := azSpec()
	for _, n := range []int{1, 2, 4} {
		q := Query{
			Canon: "azoom-test", Rep: core.RepVE, AZ: &spec,
			First: func(g core.TGraph) (core.TGraph, error) { return g.AZoom(spec) },
		}
		runBoth(t, "azoom", vs, es, n, q,
			func(g core.TGraph) (core.TGraph, error) { return g.AZoom(spec) })
	}
}

// TestAZoomPartialSharesEndpointHistories: a worker redirects each
// local edge against the endpoint histories it holds, not copies of
// them. With every vertex in one Skolem group, the partial's
// allocations grow with the slices it appends to, not with the edges.
func TestAZoomPartialSharesEndpointHistories(t *testing.T) {
	const n = 1000
	iv := temporal.MustInterval(0, 10)
	var vs []core.VertexTuple
	var es []core.EdgeTuple
	for i := 1; i <= n; i++ {
		vs = append(vs, core.VertexTuple{ID: core.VertexID(i), Interval: iv, Props: props.New("dept", "d", "score", "1")})
		es = append(es, core.EdgeTuple{ID: core.EdgeID(i), Src: core.VertexID(i), Dst: core.VertexID(i%n + 1), Interval: iv, Props: props.New("w", "1")})
	}
	w := newMemWorker(Part{Masters: vs, Edges: es}, Options{Parallelism: 1})
	defer w.close()
	spec := azSpec()
	esk := spec.BoundEdgeSkolem()
	allocs := testing.AllocsPerRun(5, func() {
		p, err := w.azoomPartial(context.Background(), &spec, esk)
		if err != nil || len(p.Edges) != n {
			t.Fatalf("partial: %d edges, %v; want %d", len(p.Edges), err, n)
		}
	})
	if allocs > n/4 {
		t.Errorf("aZoom partial over %d edges: %v allocs, want at most %d (no endpoint copies per edge)", n, allocs, n/4)
	}
}

// TestAZoomCustomAggFallsBack asserts custom aggregates skip the
// shard-side reduce but still merge byte-identically via gather.
func TestAZoomCustomAggFallsBack(t *testing.T) {
	vs, es := genGraph(40, 80)
	spec := azSpec()
	spec.Agg.Fields = append(spec.Agg.Fields,
		props.Custom("cat", "dept", func(a, b props.Value) props.Value {
			if a.String() <= b.String() {
				return a
			}
			return b
		}))
	q := Query{
		Canon: "azoom-custom", Rep: core.RepVE, AZ: &spec,
		First: func(g core.TGraph) (core.TGraph, error) { return g.AZoom(spec) },
	}
	dctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer dctx.Close()
	c := NewFromStates(vs, es, VertexCut{}, 3, Options{Parallelism: 2})
	defer c.Close()
	got, stats, err := c.Run(context.Background(), dctx, q)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if !stats.Fallback {
		t.Fatalf("custom aggregate did not take the fallback: %+v", stats)
	}
	want, err := core.NewVE(dctx, vs, es).AZoom(spec)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if g, w := canon(t, got), canon(t, want); g != w {
		t.Errorf("custom-agg fallback differs\n--- got ---\n%s--- want ---\n%s", g, w)
	}
}

// TestWZoomByteIdentity covers the two-phase wZoom path for unit and
// change-based windows, with and without dangling-edge removal.
func TestWZoomByteIdentity(t *testing.T) {
	vs, es := genGraph(60, 120)
	cases := []struct {
		name string
		spec core.WZoomSpec
	}{
		{"unit", wzSpec(temporal.MustEveryN(10), false)},
		{"unit-dangling", wzSpec(temporal.MustEveryN(7), true)},
		{"changes", wzSpec(temporal.MustEveryNChanges(3), false)},
		{"changes-dangling", wzSpec(temporal.MustEveryNChanges(2), true)},
	}
	for _, tc := range cases {
		spec := tc.spec
		for _, n := range []int{1, 2, 4} {
			q := Query{
				Canon: "wzoom-" + tc.name, Rep: core.RepVE, WZ: &spec,
				First: func(g core.TGraph) (core.TGraph, error) { return g.WZoom(spec) },
			}
			runBoth(t, "wzoom/"+tc.name, vs, es, n, q,
				func(g core.TGraph) (core.TGraph, error) { return g.WZoom(spec) })
		}
	}
}

// TestAppendRouting: a coordinator split from a graph grown by appended
// states answers as the unsharded grown graph. The appended states are
// a new state of an existing vertex, an edge between far-apart
// vertices, and an edge naming a vertex whose only state comes after it
// in the appended list; the split mirrors that vertex to the edge's
// owner all the same.
func TestAppendRouting(t *testing.T) {
	vs, es := genGraph(30, 50)
	vs = append(vs, core.VertexTuple{ID: 3, Interval: temporal.Interval{Start: 95, End: 99}, Props: props.New("dept", "d1", "score", "7")})
	es = append(es,
		core.EdgeTuple{ID: 9001, Src: 1, Dst: 29, Interval: temporal.Interval{Start: 50, End: 60}, Props: props.New("w", "3")},
		core.EdgeTuple{ID: 9002, Src: 2, Dst: 2000, Interval: temporal.Interval{Start: 10, End: 20}, Props: props.New("w", "1")},
	)
	vs = append(vs, core.VertexTuple{ID: 2000, Interval: temporal.Interval{Start: 5, End: 25}, Props: props.New("dept", "d9", "score", "50")})
	c := NewFromStates(vs, es, VertexCut{}, 4, Options{Parallelism: 2})
	defer c.Close()

	owner := VertexCut{}.edgeShard(es[len(es)-1], 4)
	if len(c.workers[owner].vstates(2000)) != 1 {
		t.Fatalf("shard %d owns edge 9002 but does not hold vertex 2000's state", owner)
	}
	dctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer dctx.Close()
	spec := azSpec()
	q := Query{Canon: "append-azoom", Rep: core.RepVE, AZ: &spec}
	got, _, err := c.Run(context.Background(), dctx, q)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := core.NewVE(dctx, vs, es).AZoom(spec)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if g, w := canon(t, got), canon(t, want); g != w {
		t.Errorf("post-append output differs\n--- got ---\n%s--- want ---\n%s", g, w)
	}
	// And the raw gather must reproduce the grown multiset exactly.
	q2 := Query{Canon: "append-gather", Rep: core.RepVE}
	got2, stats, err := c.Run(context.Background(), dctx, q2)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if !stats.Fallback {
		t.Fatalf("plain gather not marked fallback: %+v", stats)
	}
	if g, w := canon(t, got2), canon(t, core.NewVE(dctx, vs, es)); g != w {
		t.Errorf("post-append gather differs\n--- got ---\n%s--- want ---\n%s", g, w)
	}
}

// TestRunsDuringAppends scatters aZoom and wZoom queries over one
// coordinator while successors are split from ever larger graphs that
// share its input states; under -race this is the check that building
// a successor writes nothing the legs read. Every answer of the old
// coordinator equals its first, and the last successor answers as the
// unsharded grown graph.
func TestRunsDuringAppends(t *testing.T) {
	vs, es := genGraph(40, 80)
	opts := Options{Parallelism: 2}
	c := NewFromStates(vs, es, VertexCut{}, 3, opts)
	defer c.Close()
	dctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer dctx.Close()
	az, wz := azSpec(), wzSpec(temporal.MustEveryN(10), true)
	queries := []Query{{Rep: core.RepVE, AZ: &az}, {Rep: core.RepVE, WZ: &wz}}
	first := make([]string, len(queries))
	for i, q := range queries {
		g, _, err := c.Run(context.Background(), dctx, q)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		first[i] = canon(t, g)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				g, _, err := c.Run(context.Background(), dctx, q)
				if err != nil {
					t.Errorf("Run during appends: %v", err)
					return
				}
				if canon(t, g) != first[i] {
					t.Errorf("query %d: the old coordinator's answer changed while a successor was built", i)
					return
				}
			}
		}()
	}
	next := c
	for i := int64(0); i < 20; i++ {
		vs = append(vs, core.VertexTuple{ID: core.VertexID(1 + i%40), Interval: temporal.Interval{Start: 100 + temporal.Time(i), End: 101 + temporal.Time(i)}, Props: props.New("dept", "d1", "score", "5")})
		es = append(es, core.EdgeTuple{ID: core.EdgeID(5000 + i), Src: core.VertexID(1 + i%40), Dst: core.VertexID(40 - i%40), Interval: temporal.Interval{Start: 95, End: 105}, Props: props.New("w", "2")})
		next = NewFromStates(vs, es, VertexCut{}, 3, opts)
	}
	close(done)
	wg.Wait()

	for i, direct := range []func(core.TGraph) (core.TGraph, error){
		func(g core.TGraph) (core.TGraph, error) { return g.AZoom(az) },
		func(g core.TGraph) (core.TGraph, error) { return g.WZoom(wz) },
	} {
		got, _, err := next.Run(context.Background(), dctx, queries[i])
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		want, err := direct(core.NewVE(dctx, vs, es))
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		if g, w := canon(t, got), canon(t, want); g != w {
			t.Errorf("query %d after appends differs\n--- got ---\n%s--- want ---\n%s", i, g, w)
		}
	}
}

// TestChaosPartialFailure fault-injects one shard leg and asserts the
// scatter fails fast with a typed *dataflow.JobError naming the failed
// shard: there is no partial merge.
func TestChaosPartialFailure(t *testing.T) {
	vs, es := genGraph(40, 80)
	spec := azSpec()
	q := Query{Canon: "chaos-azoom", Rep: core.RepVE, AZ: &spec}
	boom := errors.New("injected shard fault")
	hookOnce := func() func(string) error {
		var mu sync.Mutex
		fired := false
		return func(site string) error {
			mu.Lock()
			defer mu.Unlock()
			if site == "shard.leg" && !fired {
				fired = true
				return boom
			}
			return nil
		}
	}

	t.Run("fail-fast", func(t *testing.T) {
		dctx := dataflow.NewContext(dataflow.WithParallelism(2))
		defer dctx.Close()
		c := NewFromStates(vs, es, VertexCut{}, 4, Options{Parallelism: 2, FaultHook: hookOnce()})
		defer c.Close()
		_, _, err := c.Run(context.Background(), dctx, q)
		var je *dataflow.JobError
		if !errors.As(err, &je) {
			t.Fatalf("want *dataflow.JobError, got %v", err)
		}
		if je.Stage != "shard.scatter" {
			t.Errorf("stage = %q, want shard.scatter", je.Stage)
		}
		if len(je.FailedPartitions()) != 1 {
			t.Errorf("failed partitions = %v, want exactly one", je.FailedPartitions())
		}
		if !errors.Is(err, boom) {
			t.Errorf("JobError does not unwrap to the injected fault: %v", err)
		}
	})
}

// TestWZoomProbeFailureEndsScatter: a failed phase-one probe leg fails
// the wZoom at once; the windowing phase never starts, so the legs run
// are the n probes alone.
func TestWZoomProbeFailureEndsScatter(t *testing.T) {
	const n = 4
	vs, es := genGraph(40, 80)
	boom := errors.New("injected probe fault")
	var mu sync.Mutex
	legs := 0
	hook := func(site string) error {
		if site != "shard.leg" {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if legs++; legs == 1 {
			return boom
		}
		return nil
	}
	dctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer dctx.Close()
	c := NewFromStates(vs, es, VertexCut{}, n, Options{Parallelism: 2, FaultHook: hook})
	defer c.Close()
	spec := wzSpec(temporal.MustEveryN(10), true)
	_, _, err := c.Run(context.Background(), dctx, Query{Canon: "probe-fault", Rep: core.RepVE, WZ: &spec})
	var je *dataflow.JobError
	if !errors.As(err, &je) || !errors.Is(err, boom) {
		t.Fatalf("want a *dataflow.JobError wrapping the probe fault, got %v", err)
	}
	if legs != n {
		t.Errorf("shard.leg ran %d times, want %d: the windowing phase ran after a failed probe", legs, n)
	}
}

// TestLegDeadline asserts the per-leg deadline derives from the request
// budget: a context that is already past its deadline fails the scatter
// with a cancellation-carrying JobError.
func TestLegDeadline(t *testing.T) {
	vs, es := genGraph(20, 30)
	dctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer dctx.Close()
	c := NewFromStates(vs, es, VertexCut{}, 2, Options{Parallelism: 2})
	defer c.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	spec := azSpec()
	_, _, err := c.Run(ctx, dctx, Query{Canon: "deadline", Rep: core.RepVE, AZ: &spec})
	if err == nil {
		t.Fatal("expired deadline did not fail the scatter")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error does not carry the deadline cause: %v", err)
	}
}
