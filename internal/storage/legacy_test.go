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

// legacyPropsColumn is the epoch-1 flat blob column: inline-key props
// blobs, dictionary-encoded.
func legacyPropsColumn(rows []row) []byte {
	pb := make([][]byte, len(rows))
	for i, r := range rows {
		pb[i] = legacyEncodeProps(r.p)
	}
	return appendDictColumn(nil, pb)
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

// legacyHistoryColumn is the epoch-1 nested blob column: inline-key
// histories, length-prefixed.
func legacyHistoryColumn(rows []row) []byte {
	var col []byte
	for _, r := range rows {
		h := legacyEncodeHistory(r.hist)
		col = binary.AppendUvarint(col, uint64(len(h)))
		col = append(col, h...)
	}
	return col
}

// legacyEncodeChunk is encodeChunk without the key-table column: 6
// columns, the sixth the epoch-1 blob column blobs builds.
func legacyEncodeChunk[M chunkIndex](l *layout[M], rows []row, offset int64, blobs func([]row) []byte) ([]byte, M) {
	var data []byte
	var lens []int
	for _, field := range []func(*row) int64{
		func(r *row) int64 { return r.id }, func(r *row) int64 { return r.src }, func(r *row) int64 { return r.dst },
		func(r *row) int64 { return r.lo }, func(r *row) int64 { return r.hi },
	} {
		at := len(data)
		data = appendDeltaInts(data, rows, field)
		lens = append(lens, len(data)-at)
	}
	col := blobs(rows)
	data = append(data, col...)
	lens = append(lens, len(col))
	h := chunkHead{Rows: len(rows), Offset: offset, Length: len(data), CRC: crc32.ChecksumIEEE(data)}
	return data, l.meta(h, zoneOf(rows), lens)
}

// legacyWrite writes an epoch-1 file of layout l: version-1 footer,
// 64-row chunks of legacyEncodeChunk.
func legacyWrite[M chunkIndex](t *testing.T, l *layout[M], path, kind string, rows []row, blobs func([]row) []byte) {
	t.Helper()
	const chunkRows = 64
	footer := fileFooter[M]{Version: 1, Kind: kind, RowCount: len(rows), ChunkRows: chunkRows}
	order := SortStructural
	if !l.fixedOrder {
		order, footer.SortOrder = SortTemporal, SortTemporal.String()
	}
	sortRows(rows, order)
	var buf bytes.Buffer
	buf.WriteString(l.magic)
	for lo := 0; lo < len(rows); lo += chunkRows {
		data, meta := legacyEncodeChunk(l, rows[lo:min(lo+chunkRows, len(rows))], int64(buf.Len()), blobs)
		buf.Write(data)
		footer.Chunks = append(footer.Chunks, meta)
	}
	writeFooterAndTrailer(t, path, &buf, footer, l.magic)
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
	legacyWrite(t, &flatLayout, filepath.Join(dir, FlatVerticesFile), "vertices", vertexRows(vs), legacyPropsColumn)
	legacyWrite(t, &flatLayout, filepath.Join(dir, FlatEdgesFile), "edges", edgeRows(es), legacyPropsColumn)
	vrows, erows := ogNestedRows(core.ToOG(core.NewVE(testCtx(), vs, es)))
	legacyWrite(t, &nestedLayout, filepath.Join(dir, NestedVerticesFile), "vertices", vrows, legacyHistoryColumn)
	legacyWrite(t, &nestedLayout, filepath.Join(dir, NestedEdgesFile), "edges", erows, legacyHistoryColumn)
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
