package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/temporal"
)

func testCtx() *dataflow.Context {
	return dataflow.NewContext(dataflow.WithParallelism(2), dataflow.WithDefaultPartitions(2))
}

func sampleVertices(n int) []core.VertexTuple {
	out := make([]core.VertexTuple, n)
	for i := range out {
		s := temporal.Time(i % 50)
		out[i] = core.VertexTuple{
			ID:       core.VertexID(i),
			Interval: temporal.Interval{Start: s, End: s + 3},
			Props:    props.New("type", "node", "grp", i%7),
		}
	}
	return out
}

func sampleEdges(n int) []core.EdgeTuple {
	out := make([]core.EdgeTuple, n)
	for i := range out {
		s := temporal.Time(i % 50)
		out[i] = core.EdgeTuple{
			ID:       core.EdgeID(i),
			Src:      core.VertexID(i),
			Dst:      core.VertexID((i + 1) % n),
			Interval: temporal.Interval{Start: s, End: s + 2},
			Props:    props.New("type", "link"),
		}
	}
	return out
}

func TestVertexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgc")
	in := sampleVertices(300)
	if err := WriteVertices(path, in, WriteOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	out, stats, err := ReadVertices(path, temporal.Empty)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsRead != 300 || stats.ChunksSkipped != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if len(out) != len(in) {
		t.Fatalf("rows = %d, want %d", len(out), len(in))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	for i := range in {
		if out[i].ID != in[i].ID || !out[i].Interval.Equal(in[i].Interval) || !out[i].Props.Equal(in[i].Props) {
			t.Fatalf("row %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestEdgeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.pgc")
	in := sampleEdges(200)
	if err := WriteEdges(path, in, WriteOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadEdges(path, temporal.Empty)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	for i := range in {
		if out[i].ID != in[i].ID || out[i].Src != in[i].Src || out[i].Dst != in[i].Dst || !out[i].Props.Equal(in[i].Props) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestPushdownSkipsChunks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgc")
	// Long evolution, structurally sorted: chunks align with time.
	var in []core.VertexTuple
	for ti := temporal.Time(0); ti < 1000; ti++ {
		for v := 0; v < 5; v++ {
			in = append(in, core.VertexTuple{
				ID:       core.VertexID(v),
				Interval: temporal.Interval{Start: ti, End: ti + 1},
				Props:    props.New("type", "node"),
			})
		}
	}
	if err := WriteVertices(path, in, WriteOptions{Order: SortStructural, ChunkRows: 100}); err != nil {
		t.Fatal(err)
	}
	rng := temporal.MustInterval(10, 30)
	out, stats, err := ReadVertices(path, rng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksSkipped == 0 {
		t.Errorf("structural sort + narrow range must skip chunks: %+v", stats)
	}
	for _, v := range out {
		if !rng.Covers(v.Interval) {
			t.Fatalf("state %v escapes range %v", v.Interval, rng)
		}
	}
	if len(out) != 20*5 {
		t.Errorf("rows = %d, want 100", len(out))
	}
}

func TestPushdownSortOrderEffect(t *testing.T) {
	// The Section 4 loading experiment: for a time-range scan,
	// structural order (sorted by start) skips more chunks than
	// temporal order (sorted by id).
	var in []core.VertexTuple
	for v := 0; v < 200; v++ {
		for s := 0; s < 10; s++ {
			st := temporal.Time(s * 10)
			in = append(in, core.VertexTuple{
				ID:       core.VertexID(v),
				Interval: temporal.Interval{Start: st, End: st + 10},
				Props:    props.New("type", "node", "s", s),
			})
		}
	}
	dir := t.TempDir()
	structural := filepath.Join(dir, "structural.pgc")
	temporalPath := filepath.Join(dir, "temporal.pgc")
	if err := WriteVertices(structural, in, WriteOptions{Order: SortStructural, ChunkRows: 100}); err != nil {
		t.Fatal(err)
	}
	if err := WriteVertices(temporalPath, in, WriteOptions{Order: SortTemporal, ChunkRows: 100}); err != nil {
		t.Fatal(err)
	}
	rng := temporal.MustInterval(0, 10)
	_, sStats, err := ReadVertices(structural, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, tStats, err := ReadVertices(temporalPath, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sStats.ChunksSkipped <= tStats.ChunksSkipped {
		t.Errorf("structural order should skip more chunks for a time slice: structural=%+v temporal=%+v", sStats, tStats)
	}
}

func TestCorruptFileDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgc")
	if err := WriteVertices(path, sampleVertices(100), WriteOptions{ChunkRows: 10}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first chunk.
	data[10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadVertices(path, temporal.Empty); err == nil {
		t.Error("corrupted chunk must fail the CRC check")
	}
}

func TestNotAPGCFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bogus")
	if err := os.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadVertices(path, temporal.Empty); err == nil {
		t.Error("non-PGC file must be rejected")
	}
	if _, _, err := ReadNestedVertices(path, temporal.Empty); err == nil {
		t.Error("non-PGN file must be rejected")
	}
}

func TestWrongKindRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgc")
	if err := WriteVertices(path, sampleVertices(5), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadEdges(path, temporal.Empty); err == nil {
		t.Error("reading vertices file as edges must fail")
	}
}

func TestNestedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgn")
	in := []core.OGVertex{
		{ID: 1, History: []core.HistoryItem{
			{Interval: temporal.MustInterval(1, 5), Props: props.New("type", "a")},
			{Interval: temporal.MustInterval(5, 9), Props: props.New("type", "a", "x", 2)},
		}},
		{ID: 2, History: []core.HistoryItem{
			{Interval: temporal.MustInterval(3, 4), Props: props.New("type", "b")},
		}},
	}
	if err := WriteNestedVertices(path, in, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadNestedVertices(path, temporal.Empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("entities = %d", len(out))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if len(out[0].History) != 2 || !out[0].History[1].Props.Equal(in[0].History[1].Props) {
		t.Errorf("history mismatch: %+v", out[0])
	}
}

func TestNestedPushdown(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgn")
	var in []core.OGVertex
	for i := 0; i < 500; i++ {
		s := temporal.Time(i)
		in = append(in, core.OGVertex{ID: core.VertexID(i), History: []core.HistoryItem{
			{Interval: temporal.Interval{Start: s, End: s + 2}, Props: props.New("type", "n")},
		}})
	}
	if err := WriteNestedVertices(path, in, WriteOptions{ChunkRows: 50}); err != nil {
		t.Fatal(err)
	}
	out, stats, err := ReadNestedVertices(path, temporal.MustInterval(100, 120))
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksSkipped == 0 {
		t.Errorf("nested pushdown should skip chunks: %+v", stats)
	}
	for _, v := range out {
		for _, h := range v.History {
			if !temporal.MustInterval(100, 120).Covers(h.Interval) {
				t.Fatalf("history %v escapes range", h.Interval)
			}
		}
	}
}

func TestSaveLoadAllRepresentations(t *testing.T) {
	ctx := testCtx()
	g := core.NewVE(ctx, sampleVertices(120), sampleEdgesWithin(120))
	dir := t.TempDir()
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 40}); err != nil {
		t.Fatal(err)
	}
	for _, rep := range []core.Representation{core.RepVE, core.RepRG, core.RepOG, core.RepOGC} {
		loaded, _, err := Load(ctx, dir, LoadOptions{Rep: rep})
		if err != nil {
			t.Fatalf("Load(%v): %v", rep, err)
		}
		if loaded.Rep() != rep {
			t.Errorf("Load produced %v, want %v", loaded.Rep(), rep)
		}
		if rep == core.RepOGC {
			continue // attribute-free; counts suffice
		}
		if loaded.NumVertices() != g.NumVertices() {
			t.Errorf("%v: %d vertices, want %d", rep, loaded.NumVertices(), g.NumVertices())
		}
		if loaded.NumEdges() != g.NumEdges() {
			t.Errorf("%v: %d edges, want %d", rep, loaded.NumEdges(), g.NumEdges())
		}
	}
	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.Representation(42)}); err == nil {
		t.Error("unknown representation must fail")
	}
}

// sampleEdgesWithin builds edges valid within their endpoints'
// intervals so the graph is valid.
func sampleEdgesWithin(n int) []core.EdgeTuple {
	vs := sampleVertices(n)
	var out []core.EdgeTuple
	for i := 0; i+1 < n; i += 3 {
		iv := vs[i].Interval.Intersect(vs[i+1].Interval)
		if iv.IsEmpty() {
			continue
		}
		out = append(out, core.EdgeTuple{
			ID: core.EdgeID(i), Src: vs[i].ID, Dst: vs[i+1].ID,
			Interval: iv, Props: props.New("type", "link"),
		})
	}
	return out
}

func TestLoadWithRangeClipsStates(t *testing.T) {
	ctx := testCtx()
	g := core.NewVE(ctx, sampleVertices(60), nil)
	dir := t.TempDir()
	if err := SaveGraph(dir, g, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	rng := temporal.MustInterval(5, 15)
	loaded, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Range: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !rng.Covers(loaded.Lifetime()) {
		t.Errorf("lifetime %v escapes range %v", loaded.Lifetime(), rng)
	}
}

// Property: props encode/decode round-trips arbitrary property sets.
func TestPropsCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b props.Builder
		for i := 0; i < r.Intn(6); i++ {
			k := string(rune('a' + r.Intn(10)))
			switch r.Intn(4) {
			case 0:
				b.Set(k, props.Int(r.Int63()-r.Int63()))
			case 1:
				b.Set(k, props.StringVal(randString(r)))
			case 2:
				b.Set(k, props.Float(r.NormFloat64()))
			default:
				b.Set(k, props.Bool(r.Intn(2) == 0))
			}
		}
		p := b.Build()
		dict := buildKeyDict(func(yield func(props.Props)) { yield(p) })
		keys, err := decodeKeyTable(appendKeyTable(nil, &dict))
		if err != nil {
			return false
		}
		if keys == nil {
			keys = []props.Key{}
		}
		got, err := decodeProps(appendProps(nil, p, &dict), keys)
		if err != nil {
			return false
		}
		return got.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

func TestDeltaIntsRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		got, err := decodeDeltaIntsInto(make([]int64, len(vals)), appendDeltaInts(nil, vals, deref))
		if err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// deref reads an integer column's value straight from a []int64.
func deref(v *int64) int64 { return *v }

func TestSortOrderString(t *testing.T) {
	if SortTemporal.String() != "temporal" || SortStructural.String() != "structural" {
		t.Error("sort order names")
	}
}
