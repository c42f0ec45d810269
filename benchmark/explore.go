package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/temporal"
)

// exploreOp is one kind of explore-cold operation: load a slice of one
// stored graph in one representation, zoom, coalesce, read the result.
type exploreOp struct {
	data  int // index into the run's datasets
	azoom bool
	rep   core.Representation
	rng   temporal.Interval // empty = whole lifetime
}

func (o exploreOp) String() string {
	z := "wzoom"
	if o.azoom {
		z = "azoom"
	}
	return fmt.Sprintf("d%d/%s/%s/[%d,%d)", o.data, z, o.rep, o.rng.Start, o.rng.End)
}

// group names the operations that must agree across representations.
func (o exploreOp) group() string {
	return fmt.Sprintf("d%d/%v/[%d,%d)", o.data, o.azoom, o.rng.Start, o.rng.End)
}

// exploreCycle lists every operation kind once: {aZoom x VE, OG, RG} and
// {wZoom x VE, OG, OGC, RG} on each dataset over four quarter-lifetime
// ranges, two halves and the whole lifetime, so zone-map pushdown has
// chunks to skip. Every kind appears once per cycle whatever the seed;
// the seed decides the order.
func exploreCycle(ndata, snapshots int, seed int64) []exploreOp {
	q, h := temporal.Time(snapshots/4), temporal.Time(snapshots/2)
	ranges := []temporal.Interval{{}}
	for i := temporal.Time(0); i < 4; i++ {
		ranges = append(ranges, temporal.MustInterval(i*q, (i+1)*q))
	}
	for i := temporal.Time(0); i < 2; i++ {
		ranges = append(ranges, temporal.MustInterval(i*h, (i+1)*h))
	}
	var ops []exploreOp
	for d := 0; d < ndata; d++ {
		for _, rng := range ranges {
			for _, rep := range []core.Representation{core.RepVE, core.RepOG, core.RepRG} {
				ops = append(ops, exploreOp{data: d, azoom: true, rep: rep, rng: rng})
			}
			for _, rep := range []core.Representation{core.RepVE, core.RepOG, core.RepOGC, core.RepRG} {
				ops = append(ops, exploreOp{data: d, rep: rep, rng: rng})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// exploreState is one set-up of explore-cold.
type exploreState struct {
	ctx   *dataflow.Context
	data  []*dataset
	dirs  []string
	az    []core.AZoomSpec
	wz    core.WZoomSpec
	cycle []exploreOp
	save  time.Duration
}

func (r *run) setupExplore() (*exploreState, error) {
	st := &exploreState{ctx: dataflow.NewContext(dataflow.WithParallelism(serverParallelism))}
	st.data = []*dataset{genSNB(r.sz, r.sz.persons, r.seed), genNGrams(r.sz, r.seed)}
	st.az = []core.AZoomSpec{
		core.GroupByProperty("firstName", "cohort", props.Count("members")),
		core.GroupByProperty("word", "term", props.Count("members")),
	}
	st.wz = core.WZoomSpec{Window: temporal.MustEveryN(3), VQuant: temporal.All(), EQuant: temporal.Exists(),
		VResolve: props.LastWins, EResolve: props.LastWins}
	for _, d := range st.data {
		dir := r.work.fresh(d.name)
		took, err := d.save(st.ctx, dir, r.sz.chunkRows)
		if err != nil {
			return nil, err
		}
		st.save += took
		st.dirs = append(st.dirs, dir)
	}
	st.cycle = exploreCycle(len(st.data), r.sz.snapshots, r.seed)
	// Warm-up: every (dataset, zoom, representation) once over the whole
	// lifetime, so lazy initialisation and the page cache are paid here.
	for _, op := range st.cycle {
		if op.rng.IsEmpty() {
			if _, err := st.exec(nil, 0, op); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// exploreResult is what one operation returned.
type exploreResult struct {
	loaded core.TGraph
	vs     []core.VertexTuple
	es     []core.EdgeTuple
}

// exec runs one operation, recording a span around each call into a
// layer when tr is not nil.
func (st *exploreState) exec(tr *tracer, opID int64, op exploreOp) (exploreResult, error) {
	root := tr.begin(-1, opID, "harness.explore_op")
	defer tr.end(root)

	s := tr.begin(root, opID, "storage.load")
	g, _, err := storage.Load(st.ctx, st.dirs[op.data], storage.LoadOptions{Rep: op.rep, Range: op.rng})
	tr.end(s)
	if err != nil {
		return exploreResult{}, fmt.Errorf("%s: load: %w", op, err)
	}
	s = tr.begin(root, opID, "core.zoom")
	var out core.TGraph
	if op.azoom {
		out, err = g.AZoom(st.az[op.data])
	} else {
		out, err = g.WZoom(st.wz)
	}
	tr.end(s)
	if err != nil {
		return exploreResult{}, fmt.Errorf("%s: zoom: %w", op, err)
	}
	s = tr.begin(root, opID, "core.coalesce")
	c := out.Coalesce()
	tr.end(s)
	s = tr.begin(root, opID, "core.materialise")
	res := exploreResult{loaded: g, vs: c.VertexStates(), es: c.EdgeStates()}
	tr.end(s)
	return res, nil
}

// canonical renders a result as sorted lines, the form in which results
// of different representations are compared.
func canonical(vs []core.VertexTuple, es []core.EdgeTuple, withProps bool) string {
	lines := make([]string, 0, len(vs)+len(es))
	p := func(pr props.Props) string {
		if withProps {
			return pr.String()
		}
		return ""
	}
	for _, t := range vs {
		lines = append(lines, fmt.Sprintf("v %d [%d,%d) %s", t.ID, t.Interval.Start, t.Interval.End, p(t.Props)))
	}
	for _, t := range es {
		lines = append(lines, fmt.Sprintf("e %d %d>%d [%d,%d) %s", t.ID, t.Src, t.Dst, t.Interval.Start, t.Interval.End, p(t.Props)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// topology reduces a result to which entity exists when: the part of a
// wZoom answer OGC, which stores no attributes, can be held to.
func topology(vs []core.VertexTuple, es []core.EdgeTuple) string {
	type key struct{ id, src, dst int64 }
	ivs := make(map[key][]temporal.Interval)
	for _, t := range vs {
		k := key{id: int64(t.ID), src: -1, dst: -1}
		ivs[k] = append(ivs[k], t.Interval)
	}
	for _, t := range es {
		k := key{int64(t.ID), int64(t.Src), int64(t.Dst)}
		ivs[k] = append(ivs[k], t.Interval)
	}
	lines := make([]string, 0, len(ivs))
	for k, list := range ivs {
		lines = append(lines, fmt.Sprintf("%d %d %d %v", k.id, k.src, k.dst, temporal.CoalesceIntervals(list)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// verifyExplore runs one more cycle outside the timed window and checks
// every operation kind: the state counts seen in the window, identity
// of the full result across VE, OG and RG, and OGC's topology against
// VE's. It returns the digest of all results, the golden value for this
// seed.
func (r *run) verifyExplore(st *exploreState, counts map[exploreOp][2]int) string {
	full := make(map[string]map[core.Representation]string)
	topo := make(map[string]map[core.Representation]string)
	var all []string
	for _, op := range st.cycle {
		res, err := st.exec(nil, 0, op)
		if err != nil {
			r.problem("verify: %v", err)
			continue
		}
		if c, ok := counts[op]; ok && (c[0] != len(res.vs) || c[1] != len(res.es)) {
			r.problem("%s: window saw %d+%d states, verification %d+%d", op, c[0], c[1], len(res.vs), len(res.es))
		}
		g := op.group()
		if full[g] == nil {
			full[g], topo[g] = map[core.Representation]string{}, map[core.Representation]string{}
		}
		if op.rep == core.RepOGC || (!op.azoom && op.rep == core.RepVE) {
			topo[g][op.rep] = digest(topology(res.vs, res.es))
		}
		if op.rep != core.RepOGC {
			d := digest(canonical(res.vs, res.es, true))
			full[g][op.rep] = d
			all = append(all, op.String()+" "+d)
		}
	}
	for g, byRep := range full {
		for rep, d := range byRep {
			if d != byRep[core.RepVE] {
				r.problem("%s: %s result differs from VE's", g, rep)
			}
		}
		if t := topo[g]; len(t) == 2 && t[core.RepOGC] != t[core.RepVE] {
			r.problem("%s: OGC topology differs from VE's", g)
		}
	}
	sort.Strings(all)
	return digest(strings.Join(all, "\n"))
}

func (r *run) runExplore() error {
	var st *exploreState
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if st, err = r.setupExplore(); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", medianFloat(setups))

	// The timed window: whole cycles only, so every operation kind
	// weighs the same in every percentile. The cycle running when the
	// time is up is finished and counted.
	counts := make(map[exploreOp][2]int)
	var lat, latTraced, latPlain []time.Duration
	w := r.beginWindow()
	deadline := w.start.Add(r.window)
	opID := int64(0)
	for cycles := 0; cycles == 0 || time.Now().Before(deadline); cycles++ {
		for _, op := range st.cycle {
			opID++
			start := time.Now()
			tr := r.tracerAt(start)
			res, err := st.exec(tr, opID, op)
			took := time.Since(start)
			r.attempted++
			if err != nil {
				r.failed++
				r.problem("%v", err)
				continue
			}
			lat = append(lat, took)
			if tr != nil {
				latTraced = append(latTraced, took)
			} else {
				latPlain = append(latPlain, took)
			}
			got := [2]int{len(res.vs), len(res.es)}
			if want, seen := counts[op]; seen && want != got {
				r.failed++
				r.problem("%s: %d+%d states, earlier %d+%d", op, got[0], got[1], want[0], want[1])
			}
			counts[op] = got
		}
	}
	w.close()
	ops := float64(len(lat))
	r.windowMetrics(w, lat, ops, 0)
	// What the analyst holds between two operations: one loaded graph
	// and one zoom result (the SNB-like graph as VE, whole lifetime).
	held, err := st.exec(nil, 0, exploreOp{rep: core.RepVE})
	if err != nil {
		return err
	}
	r.set("retained_heap_mb", retainedHeapMiB())
	runtime.KeepAlive(held)
	var disk int64
	states := 0
	for i, dir := range st.dirs {
		b, err := dirBytes(dir)
		if err != nil {
			return err
		}
		disk += b
		states += st.data[i].states()
	}
	r.set("disk_bytes_per_state", ratio(float64(disk), float64(states)))

	r.golden(r.workload, r.verifyExplore(st, counts), st.data...)

	if r.traced {
		r.set("datagen.generate_s", (st.data[0].genTime + st.data[1].genTime).Seconds())
		r.set("storage.save_ms", msOf(st.save))
		r.windowCounterMetrics(w, ops, 0)
		r.set("obs.trace_overhead_pct", traceOverheadPct(latTraced, latPlain))
		r.spanMetrics()
		return r.probes(st.data[0])
	}
	return nil
}
