package storage

// Epoch-1 layout rejection: directories written before the epoch-2
// key-dictionary layout — 6-column chunks with property labels inlined
// in every blob, manifest epoch 1 — are refused, never mis-decoded. The
// epoch-1 encoders below exist only as test fixtures; they replicate
// the old writer's byte layout.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/props"
)

// legacyEncodeProps serialises a property set in the epoch-1 blob
// layout: count, then per field (key len, key, kind, payload len,
// payload), label-sorted.
func legacyEncodeProps(p props.Props) []byte {
	buf := binary.AppendUvarint(nil, uint64(p.Len()))
	for _, k := range p.Keys() {
		v, _ := p.Get(k)
		kind, payload := v.Encode()
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(kind))
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	return buf
}

// legacyEncodeChunk is encodeChunk without the key-table column:
// 6 columns, inline-key property blobs.
func legacyEncodeChunk(rows []row) ([]byte, chunkMeta) {
	n := len(rows)
	ids := make([]int64, n)
	srcs := make([]int64, n)
	dsts := make([]int64, n)
	starts := make([]int64, n)
	ends := make([]int64, n)
	pb := make([][]byte, n)
	meta := chunkMeta{Rows: n}
	for i, r := range rows {
		ids[i], srcs[i], dsts[i], starts[i], ends[i] = r.id, r.src, r.dst, r.start, r.end
		pb[i] = legacyEncodeProps(r.p)
		if i == 0 {
			meta.MinStart, meta.MaxStart = r.start, r.start
			meta.MinEnd, meta.MaxEnd = r.end, r.end
			meta.MinID, meta.MaxID = r.id, r.id
		} else {
			meta.MinStart = min(meta.MinStart, r.start)
			meta.MaxStart = max(meta.MaxStart, r.start)
			meta.MinEnd = min(meta.MinEnd, r.end)
			meta.MaxEnd = max(meta.MaxEnd, r.end)
			meta.MinID = min(meta.MinID, r.id)
			meta.MaxID = max(meta.MaxID, r.id)
		}
	}
	cols := [][]byte{
		appendDeltaInts(nil, ids, deref),
		appendDeltaInts(nil, srcs, deref),
		appendDeltaInts(nil, dsts, deref),
		appendDeltaInts(nil, starts, deref),
		appendDeltaInts(nil, ends, deref),
		appendDictColumn(nil, pb),
	}
	var data []byte
	for _, c := range cols {
		meta.ColLens = append(meta.ColLens, len(c))
		data = append(data, c...)
	}
	meta.Length = len(data)
	meta.CRC = crc32.ChecksumIEEE(data)
	return data, meta
}

func legacyWritePGC(t *testing.T, path, kind string, rows []row, order SortOrder, chunkRows int) {
	t.Helper()
	sortRows(rows, order)
	var buf bytes.Buffer
	buf.WriteString(magic)
	offset := int64(len(magic))
	footer := fileFooter{Version: 1, Kind: kind, RowCount: len(rows), ChunkRows: chunkRows, SortOrder: order.String()}
	for lo := 0; lo < len(rows); lo += chunkRows {
		hi := min(lo+chunkRows, len(rows))
		data, meta := legacyEncodeChunk(rows[lo:hi])
		meta.Offset = offset
		buf.Write(data)
		offset += int64(len(data))
		footer.Chunks = append(footer.Chunks, meta)
	}
	writeFooterAndTrailer(t, path, &buf, footer, magic)
}

// legacyEncodeHistory serialises a history array with inline-key
// property blobs.
func legacyEncodeHistory(h []core.HistoryItem) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(h)))
	for _, it := range h {
		buf = binary.AppendVarint(buf, int64(it.Interval.Start))
		buf = binary.AppendVarint(buf, int64(it.Interval.End))
		pb := legacyEncodeProps(it.Props)
		buf = binary.AppendUvarint(buf, uint64(len(pb)))
		buf = append(buf, pb...)
	}
	return buf
}

// legacyEncodeNestedChunk is encodeNestedChunk without the key-table
// column.
func legacyEncodeNestedChunk(rows []nestedRow) ([]byte, nestedChunkMeta) {
	n := len(rows)
	ids := make([]int64, n)
	srcs := make([]int64, n)
	dsts := make([]int64, n)
	firsts := make([]int64, n)
	lasts := make([]int64, n)
	meta := nestedChunkMeta{Rows: n}
	var hcol []byte
	for i, r := range rows {
		ids[i], srcs[i], dsts[i], firsts[i], lasts[i] = r.id, r.src, r.dst, r.firstStart, r.lastEnd
		h := legacyEncodeHistory(r.hist)
		hcol = binary.AppendUvarint(hcol, uint64(len(h)))
		hcol = append(hcol, h...)
		if i == 0 {
			meta.MinFirstStart, meta.MaxFirstStart = r.firstStart, r.firstStart
			meta.MinLastEnd, meta.MaxLastEnd = r.lastEnd, r.lastEnd
		} else {
			meta.MinFirstStart = min(meta.MinFirstStart, r.firstStart)
			meta.MaxFirstStart = max(meta.MaxFirstStart, r.firstStart)
			meta.MinLastEnd = min(meta.MinLastEnd, r.lastEnd)
			meta.MaxLastEnd = max(meta.MaxLastEnd, r.lastEnd)
		}
	}
	cols := [][]byte{
		appendDeltaInts(nil, ids, deref), appendDeltaInts(nil, srcs, deref), appendDeltaInts(nil, dsts, deref),
		appendDeltaInts(nil, firsts, deref), appendDeltaInts(nil, lasts, deref), hcol,
	}
	var data []byte
	for _, c := range cols {
		meta.ColLens = append(meta.ColLens, len(c))
		data = append(data, c...)
	}
	meta.Length = len(data)
	meta.CRC = crc32.ChecksumIEEE(data)
	return data, meta
}

func legacyWritePGN(t *testing.T, path, kind string, rows []nestedRow, chunkRows int) {
	t.Helper()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].firstStart != rows[j].firstStart {
			return rows[i].firstStart < rows[j].firstStart
		}
		return rows[i].id < rows[j].id
	})
	var buf bytes.Buffer
	buf.WriteString(nestedMagic)
	offset := int64(len(nestedMagic))
	footer := nestedFooter{Version: 1, Kind: kind, RowCount: len(rows), ChunkRows: chunkRows}
	for lo := 0; lo < len(rows); lo += chunkRows {
		hi := min(lo+chunkRows, len(rows))
		data, meta := legacyEncodeNestedChunk(rows[lo:hi])
		meta.Offset = offset
		buf.Write(data)
		offset += int64(len(data))
		footer.Chunks = append(footer.Chunks, meta)
	}
	writeFooterAndTrailer(t, path, &buf, footer, nestedMagic)
}

// writeFooterAndTrailer appends the JSON footer and 16-byte trailer to
// buf and writes the whole file.
func writeFooterAndTrailer(t *testing.T, path string, buf *bytes.Buffer, footer any, fileMagic string) {
	t.Helper()
	fb, err := json.Marshal(footer)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(fb)
	var trailer [16]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(len(fb)))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.ChecksumIEEE(fb))
	copy(trailer[12:], fileMagic)
	buf.Write(trailer[:])
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// legacyWriteManifest commits the directory with a manifest of the
// given format epoch over the files already on disk.
func legacyWriteManifest(t *testing.T, dir string, names []string, epoch int) {
	t.Helper()
	var entries []ManifestEntry
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, ManifestEntry{
			Name: name, Size: int64(len(data)), CRC: crc32.ChecksumIEEE(data),
		})
	}
	m := Manifest{Epoch: epoch, Entries: entries}
	crc, err := entriesCRC(entries)
	if err != nil {
		t.Fatal(err)
	}
	m.CRC = crc
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyDir writes a complete epoch-1 graph directory (flat +
// nested files, epoch-1 manifest) for the given states.
func writeLegacyDir(t *testing.T, dir string, vs []core.VertexTuple, es []core.EdgeTuple) {
	t.Helper()
	legacyWritePGC(t, filepath.Join(dir, FlatVerticesFile), "vertices", vertexRows(vs), SortTemporal, 64)
	legacyWritePGC(t, filepath.Join(dir, FlatEdgesFile), "edges", edgeRows(es), SortTemporal, 64)

	og := core.ToOG(core.NewVE(testCtx(), vs, es))
	var ogvs []core.OGVertex
	for _, part := range og.Vertices().Partitions() {
		for _, v := range part {
			ogvs = append(ogvs, core.OGVertex{ID: v.ID, History: v.Attr})
		}
	}
	var oges []core.OGEdge
	for _, part := range og.Edges().Partitions() {
		for _, e := range part {
			oges = append(oges, core.OGEdge{ID: e.ID, Src: e.Src, Dst: e.Dst, History: e.Attr})
		}
	}
	legacyWritePGN(t, filepath.Join(dir, NestedVerticesFile), "vertices", nestedVertexRows(ogvs), 64)
	legacyWritePGN(t, filepath.Join(dir, NestedEdgesFile), "edges", nestedEdgeRows(oges), 64)
	legacyWriteManifest(t, dir, layoutFiles, 1)
}

// TestEpoch1LayoutRejected pins the two rejections that replace the
// epoch-1 decode path. An epoch-1 manifest is a typed
// ErrManifestMismatch. Epoch-1 chunks behind a manifest that passes (a
// current-epoch one, or none under Permissive) are an ordinary decode
// error by their column count: fatal in strict mode, every chunk
// counted corrupt and nothing decoded under Permissive — never a panic,
// never inline-key blobs read as dictionary indexes.
func TestEpoch1LayoutRejected(t *testing.T) {
	dir := t.TempDir()
	writeLegacyDir(t, dir, sampleVertices(150), sampleEdges(90))
	reps := []core.Representation{core.RepVE, core.RepRG, core.RepOG, core.RepOGC}

	for _, rep := range reps {
		if _, _, err := Load(testCtx(), dir, LoadOptions{Rep: rep}); !errors.Is(err, ErrManifestMismatch) {
			t.Errorf("%s: epoch-1 manifest: err = %v, want ErrManifestMismatch", rep, err)
		}
	}
	if vr, err := VerifyDir(dir); err != nil || vr.Clean {
		t.Errorf("VerifyDir of an epoch-1 directory: clean=%v err=%v, want damaged", vr.Clean, err)
	}

	assertNothingDecoded := func(when string) {
		t.Helper()
		for _, rep := range reps {
			g, stats, err := Load(testCtx(), dir, LoadOptions{Rep: rep, Permissive: true})
			if err != nil {
				t.Fatalf("%s, %s: permissive load: %v", when, rep, err)
			}
			if g.NumVertices() != 0 || g.NumEdges() != 0 || stats.ChunksCorrupt == 0 || stats.ChunksCorrupt != stats.ChunksRead {
				t.Errorf("%s, %s: %d vertices / %d edges, stats %+v; want nothing decoded and every chunk read counted corrupt",
					when, rep, g.NumVertices(), g.NumEdges(), stats)
			}
		}
	}

	legacyWriteManifest(t, dir, layoutFiles, FormatEpoch)
	for _, rep := range reps {
		_, _, err := Load(testCtx(), dir, LoadOptions{Rep: rep})
		if err == nil || errors.Is(err, ErrManifestMismatch) || errors.Is(err, ErrIncompleteSave) {
			t.Errorf("%s: 6-column chunks behind a current manifest: err = %v, want a chunk decode error", rep, err)
		}
	}
	assertNothingDecoded("current manifest")

	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	assertNothingDecoded("no manifest")
}
