package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Corruption-resilience tests: random byte flips anywhere in a file
// must never crash a reader — every corruption is either detected (an
// error) or provably harmless (identical decode, e.g. a flip inside
// JSON footer whitespace is impossible here, so any silent success must
// round-trip the data).

func TestFlatReaderSurvivesRandomCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgc")
	in := sampleVertices(200)
	if err := WriteVertices(path, in, WriteOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), orig...)
		pos := r.Intn(len(data))
		data[pos] ^= byte(1 + r.Intn(255))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d (flip at %d): reader panicked: %v", trial, pos, p)
				}
			}()
			out, _, err := ReadVertices(path, temporal.Empty)
			if err != nil {
				return // detected, good
			}
			if len(out) != len(in) {
				t.Fatalf("trial %d: silent corruption changed row count to %d", trial, len(out))
			}
		}()
	}
}

func TestNestedReaderSurvivesRandomCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgn")
	var in []core.OGVertex
	for i := 0; i < 100; i++ {
		in = append(in, core.OGVertex{ID: core.VertexID(i), History: []core.HistoryItem{
			{Interval: temporal.MustInterval(temporal.Time(i), temporal.Time(i+3)), Props: props.New("type", "n", "i", i)},
		}})
	}
	if err := WriteNestedVertices(path, in, WriteOptions{ChunkRows: 16}); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), orig...)
		pos := r.Intn(len(data))
		data[pos] ^= byte(1 + r.Intn(255))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d (flip at %d): nested reader panicked: %v", trial, pos, p)
				}
			}()
			out, _, err := ReadNestedVertices(path, temporal.Empty)
			if err != nil {
				return
			}
			if len(out) != len(in) {
				t.Fatalf("trial %d: silent corruption changed entity count to %d", trial, len(out))
			}
		}()
	}
}

func TestTruncatedFilesRejected(t *testing.T) {
	dir := t.TempDir()
	flat := filepath.Join(dir, "v.pgc")
	if err := WriteVertices(flat, sampleVertices(50), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	nested := filepath.Join(dir, "v.pgn")
	if err := WriteNestedVertices(nested, []core.OGVertex{{ID: 1, History: []core.HistoryItem{
		{Interval: temporal.MustInterval(0, 3), Props: props.New("type", "n")},
	}}}, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{flat, nested} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 3, 11, len(data) / 2, len(data) - 1} {
			trunc := filepath.Join(dir, "trunc")
			if err := os.WriteFile(trunc, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadVertices(trunc, temporal.Empty); err == nil {
				t.Errorf("%s truncated to %d bytes read as flat: want error", path, n)
			}
			if _, _, err := ReadNestedVertices(trunc, temporal.Empty); err == nil {
				t.Errorf("%s truncated to %d bytes read as nested: want error", path, n)
			}
		}
	}
}

func TestLoadPropagatesMissingFiles(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	for _, rep := range []core.Representation{core.RepVE, core.RepOG} {
		if _, _, err := Load(ctx, dir, LoadOptions{Rep: rep}); err == nil {
			t.Errorf("Load(%v) from empty dir: want error", rep)
		}
	}
	// Vertices present, edges missing.
	if err := WriteVertices(filepath.Join(dir, FlatVerticesFile), sampleVertices(5), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE}); err == nil {
		t.Error("missing edges file: want error")
	}
}

func TestSaveGraphToUnwritablePath(t *testing.T) {
	ctx := testCtx()
	g := core.NewVE(ctx, sampleVertices(5), nil)
	if err := SaveGraph("/proc/definitely/not/writable", g, SaveOptions{}); err == nil {
		t.Error("unwritable dir: want error")
	}
}

func TestLoadCoalescedFlag(t *testing.T) {
	ctx := testCtx()
	g := core.NewVE(ctx, sampleVertices(30), nil).Coalesce()
	dir := t.TempDir()
	if err := SaveGraph(dir, g, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, rep := range []core.Representation{core.RepVE, core.RepOG} {
		loaded, _, err := Load(ctx, dir, LoadOptions{Rep: rep, Coalesced: true})
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.IsCoalesced() {
			t.Errorf("%v: Coalesced option not honoured", rep)
		}
	}
}

// corruptChunk flips one byte inside the data region of chunk k of a
// flat or nested file (by its extension) and rewrites the file,
// returning the number of rows stored in that chunk.
func corruptChunk(t *testing.T, path string, k int) int {
	t.Helper()
	r, err := openHeads(path)
	if err != nil {
		t.Fatal(err)
	}
	if k >= len(r.footer.Chunks) {
		t.Fatalf("file has %d chunks, wanted to corrupt %d", len(r.footer.Chunks), k)
	}
	h := r.footer.Chunks[k]
	data := append([]byte(nil), r.data...)
	data[h.Offset+int64(h.Length)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return h.Rows
}

// Permissive mode on the flat reader: the corrupted chunk is skipped
// and counted once; every row from the intact chunks round-trips.
func TestPermissiveFlatSkipsCorruptChunk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgc")
	in := sampleVertices(200)
	if err := WriteVertices(path, in, WriteOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	lost := corruptChunk(t, path, 1)

	if _, _, err := ReadVertices(path, temporal.Empty); err == nil {
		t.Fatal("strict read of a corrupt chunk: want error")
	}

	before := obsCorruptChunks.Value()
	out, stats, err := ReadVerticesOpts(path, ReadOptions{Permissive: true})
	if err != nil {
		t.Fatalf("permissive read: %v", err)
	}
	if stats.ChunksCorrupt != 1 {
		t.Errorf("ChunksCorrupt = %d, want 1", stats.ChunksCorrupt)
	}
	if got := obsCorruptChunks.Value() - before; got != 1 {
		t.Errorf("storage.corrupt_chunks_skipped delta = %d, want 1", got)
	}
	if len(out) != len(in)-lost {
		t.Fatalf("rows = %d, want %d (200 minus the %d-row corrupt chunk)", len(out), len(in)-lost, lost)
	}
	// Surviving rows must round-trip exactly.
	want := make(map[core.VertexID]core.VertexTuple, len(in))
	for _, v := range in {
		want[v.ID] = v
	}
	for _, v := range out {
		w, ok := want[v.ID]
		if !ok {
			t.Fatalf("permissive read invented vertex %d", v.ID)
		}
		if v.Interval != w.Interval || !v.Props.Equal(w.Props) {
			t.Fatalf("vertex %d did not round-trip: got %+v want %+v", v.ID, v, w)
		}
	}
}

// The satellite case: Permissive mode on the nested (.pgn) reader —
// the corrupted chunk is skipped, the skip counter increments exactly
// once, and entities from the good chunks round-trip.
func TestPermissiveNestedSkipsCorruptChunk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgn")
	var in []core.OGVertex
	for i := 0; i < 100; i++ {
		in = append(in, core.OGVertex{ID: core.VertexID(i), History: []core.HistoryItem{
			{Interval: temporal.MustInterval(temporal.Time(i), temporal.Time(i+3)), Props: props.New("type", "n", "i", i)},
		}})
	}
	if err := WriteNestedVertices(path, in, WriteOptions{ChunkRows: 16}); err != nil {
		t.Fatal(err)
	}
	lost := corruptChunk(t, path, 2)

	if _, _, err := ReadNestedVertices(path, temporal.Empty); err == nil {
		t.Fatal("strict nested read of a corrupt chunk: want error")
	}

	before := obsCorruptChunks.Value()
	out, stats, err := ReadNestedVerticesOpts(path, ReadOptions{Permissive: true})
	if err != nil {
		t.Fatalf("permissive nested read: %v", err)
	}
	if stats.ChunksCorrupt != 1 {
		t.Errorf("ChunksCorrupt = %d, want 1", stats.ChunksCorrupt)
	}
	if got := obsCorruptChunks.Value() - before; got != 1 {
		t.Errorf("storage.corrupt_chunks_skipped delta = %d, want 1", got)
	}
	if len(out) != len(in)-lost {
		t.Fatalf("entities = %d, want %d (100 minus the %d-row corrupt chunk)", len(out), len(in)-lost, lost)
	}
	want := make(map[core.VertexID]core.OGVertex, len(in))
	for _, v := range in {
		want[v.ID] = v
	}
	for _, v := range out {
		w, ok := want[v.ID]
		if !ok {
			t.Fatalf("permissive read invented entity %d", v.ID)
		}
		if len(v.History) != len(w.History) {
			t.Fatalf("entity %d history length %d, want %d", v.ID, len(v.History), len(w.History))
		}
		for i := range v.History {
			if v.History[i].Interval != w.History[i].Interval || !v.History[i].Props.Equal(w.History[i].Props) {
				t.Fatalf("entity %d history[%d] did not round-trip", v.ID, i)
			}
		}
	}
}

// Load passes Permissive through to both files of a layout and
// aggregates the corrupt-chunk counts into one ScanStats.
func TestPermissiveLoad(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	g := core.NewVE(ctx, sampleVertices(200), nil)
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	corruptChunk(t, filepath.Join(dir, FlatVerticesFile), 0)

	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE}); err == nil {
		t.Fatal("strict load of corrupt dir: want error")
	}
	loaded, stats, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Permissive: true})
	if err != nil {
		t.Fatalf("permissive load: %v", err)
	}
	if stats.ChunksCorrupt != 1 {
		t.Errorf("ChunksCorrupt = %d, want 1", stats.ChunksCorrupt)
	}
	if n := len(loaded.VertexStates()); n == 0 || n >= 200 {
		t.Errorf("partial load returned %d vertices, want 0 < n < 200", n)
	}
}

// The satellite case: corruption at the EDGES of a nested file — the
// very first and very last chunk — exercises the boundary arithmetic of
// the skip path (chunk 0 anchors the delta decoding, the tail chunk is
// short). Both are skipped and everything between survives.
func TestPermissiveNestedCorruptFirstAndLastChunk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.pgn")
	var in []core.OGVertex
	for i := 0; i < 100; i++ {
		in = append(in, core.OGVertex{ID: core.VertexID(i), History: []core.HistoryItem{
			{Interval: temporal.MustInterval(temporal.Time(i), temporal.Time(i+3)), Props: props.New("type", "n", "i", i)},
		}})
	}
	// ChunkRows 16 over 100 entities: chunks 0..5 hold 16, chunk 6 the
	// final 4.
	if err := WriteNestedVertices(path, in, WriteOptions{ChunkRows: 16}); err != nil {
		t.Fatal(err)
	}
	lostFirst := corruptChunk(t, path, 0)
	lostLast := corruptChunk(t, path, 6)
	if lostFirst != 16 || lostLast != 4 {
		t.Fatalf("chunk layout changed: first holds %d, last holds %d", lostFirst, lostLast)
	}

	out, stats, err := ReadNestedVerticesOpts(path, ReadOptions{Permissive: true})
	if err != nil {
		t.Fatalf("permissive read with torn first and last chunk: %v", err)
	}
	if stats.ChunksCorrupt != 2 {
		t.Errorf("ChunksCorrupt = %d, want 2", stats.ChunksCorrupt)
	}
	if len(out) != len(in)-lostFirst-lostLast {
		t.Fatalf("entities = %d, want %d", len(out), len(in)-lostFirst-lostLast)
	}
	want := make(map[core.VertexID]core.OGVertex, len(in))
	for _, v := range in {
		want[v.ID] = v
	}
	for _, v := range out {
		if int(v.ID) < lostFirst || int(v.ID) >= len(in)-lostLast {
			t.Fatalf("entity %d belongs to a corrupt chunk but was returned", v.ID)
		}
		w := want[v.ID]
		if len(v.History) != len(w.History) || v.History[0].Interval != w.History[0].Interval || !v.History[0].Props.Equal(w.History[0].Props) {
			t.Fatalf("entity %d did not round-trip", v.ID)
		}
	}
}

// The satellite case: a time-range Load over a partially corrupt file —
// zone-map pushdown and corrupt-chunk skipping interact. Corruption in
// a chunk OUTSIDE the range is never even CRC-checked (the zone map
// skips it first), so only the in-range damage is counted.
func TestPermissiveLoadRangeOverCorruptFile(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	// Monotone starts give the zone maps disjoint ranges: chunk k covers
	// starts [32k, 32k+31].
	vs := make([]core.VertexTuple, 300)
	for i := range vs {
		vs[i] = core.VertexTuple{
			ID:       core.VertexID(i),
			Interval: temporal.MustInterval(temporal.Time(i), temporal.Time(i+2)),
			Props:    props.New("type", "n"),
		}
	}
	g := core.NewVE(ctx, vs, nil)
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FlatVerticesFile)
	// Chunk 4 (ids 128..159) lies inside the query range; chunk 0 does
	// not. Both flips keep the file size, so the manifest check passes
	// and the chunk CRCs are the only tripwire.
	corruptChunk(t, path, 4)
	corruptChunk(t, path, 0)
	rng := temporal.MustInterval(100, 164)

	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Range: rng}); err == nil {
		t.Fatal("strict range load over an in-range corrupt chunk: want error")
	}

	loaded, stats, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Range: rng, Permissive: true})
	if err != nil {
		t.Fatalf("permissive range load: %v", err)
	}
	// 10 chunks total: 3..5 overlap the range, so 7 are zone-map
	// skipped — including corrupt chunk 0, which therefore is NOT
	// counted corrupt.
	if stats.ChunksSkipped != 7 {
		t.Errorf("ChunksSkipped = %d, want 7", stats.ChunksSkipped)
	}
	if stats.ChunksCorrupt != 1 {
		t.Errorf("ChunksCorrupt = %d, want 1 (out-of-range corruption must stay invisible)", stats.ChunksCorrupt)
	}
	// Survivors: rows overlapping [100,164) from intact chunks 3 and 5 —
	// ids 99..127 and 160..163; chunk 4's ids 128..159 are lost.
	got := map[int]bool{}
	for _, v := range loaded.VertexStates() {
		got[int(v.ID)] = true
	}
	for i := 99; i <= 163; i++ {
		inCorrupt := i >= 128 && i <= 159
		if inCorrupt && got[i] {
			t.Errorf("id %d from the corrupt chunk was returned", i)
		}
		if !inCorrupt && !got[i] {
			t.Errorf("id %d overlaps the range but is missing", i)
		}
	}
	if len(got) != 163-99+1-(159-128+1) {
		t.Errorf("rows = %d, want 33", len(got))
	}
}
