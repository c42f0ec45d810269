package storage

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/temporal"
)

// The nested layout stores pre-grouped OG entities — one row per
// vertex/edge with its full history array — so that OG and OGC load
// without re-grouping. Interval data lives inside the nested history
// column, which a Parquet-style zone map cannot see; following the
// paper (Section 4), each row therefore also stores the first start and
// last end of its history as separate columns, and the file is sorted
// on these so the time-range pushdown still works.

// nestedRow is the on-disk record of one entity. The write path carries
// the decoded history (hist) so the chunk encoder can build the chunk's
// key dictionary; the read path carries the encoded history blob plus
// the chunk's decoded key table.
type nestedRow struct {
	id         int64
	src, dst   int64
	firstStart int64
	lastEnd    int64
	hist       []core.HistoryItem
	history    []byte
	keys       []props.Key
}

type nestedChunkMeta struct {
	Rows          int    `json:"rows"`
	Offset        int64  `json:"offset"`
	Length        int    `json:"length"`
	CRC           uint32 `json:"crc"`
	MinFirstStart int64  `json:"minFirstStart"`
	MaxFirstStart int64  `json:"maxFirstStart"`
	MinLastEnd    int64  `json:"minLastEnd"`
	MaxLastEnd    int64  `json:"maxLastEnd"`
	ColLens       []int  `json:"colLens"`
}

type nestedFooter struct {
	Version   int               `json:"version"`
	Kind      string            `json:"kind"`
	RowCount  int               `json:"rowCount"`
	ChunkRows int               `json:"chunkRows"`
	Chunks    []nestedChunkMeta `json:"chunks"`
}

// appendHistory appends a history array to buf: count, then per item
// (start, end, propsLen, props). Property blobs reference the chunk key
// dictionary d and are staged in its scratch.
func appendHistory(buf []byte, h []core.HistoryItem, d *chunkKeyDict) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(h)))
	for _, it := range h {
		buf = binary.AppendVarint(buf, int64(it.Interval.Start))
		buf = binary.AppendVarint(buf, int64(it.Interval.End))
		d.blob = appendProps(d.blob[:0], it.Props, d)
		buf = binary.AppendUvarint(buf, uint64(len(d.blob)))
		buf = append(buf, d.blob...)
	}
	return buf
}

// decodeHistory reverses appendHistory. keys is the chunk's decoded key
// table.
func decodeHistory(data []byte, keys []props.Key) ([]core.HistoryItem, error) {
	r := &byteReader{buf: data}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]core.HistoryItem, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := r.varint()
		if err != nil {
			return nil, err
		}
		e, err := r.varint()
		if err != nil {
			return nil, err
		}
		plen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pb, err := r.bytes(int(plen))
		if err != nil {
			return nil, err
		}
		p, err := decodeProps(pb, keys)
		if err != nil {
			return nil, err
		}
		out = append(out, core.HistoryItem{
			Interval: temporal.Interval{Start: temporal.Time(s), End: temporal.Time(e)},
			Props:    p,
		})
	}
	return out, nil
}

func historySpan(h []core.HistoryItem) (first, last int64) {
	if len(h) == 0 {
		return 0, 0
	}
	first, last = int64(h[0].Interval.Start), int64(h[0].Interval.End)
	for _, it := range h[1:] {
		first = min(first, int64(it.Interval.Start))
		last = max(last, int64(it.Interval.End))
	}
	return first, last
}

// WriteNestedVertices writes OG vertices in the nested layout,
// atomically.
func WriteNestedVertices(path string, vs []core.OGVertex, opts WriteOptions) error {
	_, err := writeNested(path, "vertices", nestedVertexRows(vs), opts)
	return err
}

func nestedVertexRows(vs []core.OGVertex) []nestedRow {
	rows := make([]nestedRow, len(vs))
	for i, v := range vs {
		rows[i] = nestedOf(int64(v.ID), 0, 0, v.History)
	}
	return rows
}

func nestedEdgeRows(es []core.OGEdge) []nestedRow {
	rows := make([]nestedRow, len(es))
	for i, e := range es {
		rows[i] = nestedOf(int64(e.ID), int64(e.Src), int64(e.Dst), e.History)
	}
	return rows
}

// ogNestedRows builds the nested rows of g straight from its
// partitions, sharing its histories.
func ogNestedRows(g *core.OG) (vrows, erows []nestedRow) {
	vrows = make([]nestedRow, 0, g.Vertices().Count())
	for _, part := range g.Vertices().Partitions() {
		for _, v := range part {
			vrows = append(vrows, nestedOf(int64(v.ID), 0, 0, v.Attr))
		}
	}
	erows = make([]nestedRow, 0, g.Edges().Count())
	for _, part := range g.Edges().Partitions() {
		for _, e := range part {
			erows = append(erows, nestedOf(int64(e.ID), int64(e.Src), int64(e.Dst), e.Attr))
		}
	}
	return vrows, erows
}

func nestedOf(id, src, dst int64, h []core.HistoryItem) nestedRow {
	first, last := historySpan(h)
	return nestedRow{id: id, src: src, dst: dst, firstStart: first, lastEnd: last, hist: h}
}

// writeNested atomically writes one PGN file and returns its manifest
// entry.
func writeNested(path, kind string, rows []nestedRow, opts WriteOptions) (ManifestEntry, error) {
	sf, ent, err := stageNested(path, kind, rows, opts)
	if err != nil {
		return ent, err
	}
	return ent, sf.commit(opts.FaultHook)
}

// stageNested writes one PGN file to its temp name, fsyncs it, and
// returns the staged file plus its manifest entry.
func stageNested(path, kind string, rows []nestedRow, opts WriteOptions) (stagedFile, ManifestEntry, error) {
	// Sort on the pushdown columns (firstStart, then id).
	slices.SortFunc(rows, func(a, b nestedRow) int {
		return cmp.Or(cmp.Compare(a.firstStart, b.firstStart), cmp.Compare(a.id, b.id))
	})
	sf, sum, err := writeStaged(path, opts.FaultHook, func(w io.Writer) error {
		return encodeNested(w, kind, rows, opts)
	})
	ent := ManifestEntry{Name: filepath.Base(path), Size: sum.size, CRC: sum.crc, Rows: len(rows)}
	return sf, ent, err
}

// encodeNested streams the PGN layout to w. Rows must already be
// sorted.
func encodeNested(w io.Writer, kind string, rows []nestedRow, opts WriteOptions) error {
	if _, err := io.WriteString(w, nestedMagic); err != nil {
		return err
	}
	offset := int64(len(nestedMagic))
	footer := nestedFooter{Version: 2, Kind: kind, RowCount: len(rows), ChunkRows: opts.chunkRows()}
	var data []byte
	for lo := 0; lo < len(rows); lo += footer.ChunkRows {
		hi := min(lo+footer.ChunkRows, len(rows))
		var meta nestedChunkMeta
		data, meta = encodeNestedChunk(data, rows[lo:hi])
		meta.Offset = offset
		if _, err := w.Write(data); err != nil {
			return err
		}
		offset += int64(len(data))
		footer.Chunks = append(footer.Chunks, meta)
	}
	fb, err := json.Marshal(footer)
	if err != nil {
		return err
	}
	if _, err := w.Write(fb); err != nil {
		return err
	}
	var trailer [16]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(len(fb)))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.ChecksumIEEE(fb))
	copy(trailer[12:], nestedMagic)
	_, err = w.Write(trailer[:])
	return err
}

// encodeNestedChunk lays out a nested chunk column by column in
// buf[:0], as encodeChunk does a flat one.
func encodeNestedChunk(buf []byte, rows []nestedRow) ([]byte, nestedChunkMeta) {
	dict := buildKeyDict(func(yield func(props.Props)) {
		for _, r := range rows {
			for _, it := range r.hist {
				yield(it.Props)
			}
		}
	})
	meta := nestedChunkMeta{Rows: len(rows), ColLens: make([]int, 0, 7)}
	for i, r := range rows {
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
	at := 0
	col := func(data []byte) []byte {
		meta.ColLens = append(meta.ColLens, len(data)-at)
		at = len(data)
		return data
	}
	data := col(appendDeltaInts(buf[:0], rows, func(r *nestedRow) int64 { return r.id }))
	data = col(appendDeltaInts(data, rows, func(r *nestedRow) int64 { return r.src }))
	data = col(appendDeltaInts(data, rows, func(r *nestedRow) int64 { return r.dst }))
	data = col(appendDeltaInts(data, rows, func(r *nestedRow) int64 { return r.firstStart }))
	data = col(appendDeltaInts(data, rows, func(r *nestedRow) int64 { return r.lastEnd }))
	// History is stored plain length-prefixed (histories are unique per
	// entity; dictionary encoding would not pay off).
	var hist []byte
	for _, r := range rows {
		hist = appendHistory(hist[:0], r.hist, &dict)
		data = binary.AppendUvarint(data, uint64(len(hist)))
		data = append(data, hist...)
	}
	data = col(data)
	data = col(appendKeyTable(data, &dict))
	meta.Length = len(data)
	meta.CRC = crc32.ChecksumIEEE(data)
	return data, meta
}

type nestedReader struct {
	footer nestedFooter
	data   []byte
}

func openNested(path string) (*nestedReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", path, err)
	}
	if len(data) < len(nestedMagic)+16 || string(data[:len(nestedMagic)]) != nestedMagic {
		return nil, fmt.Errorf("storage: %s is not a nested PGC file", path)
	}
	trailer := data[len(data)-16:]
	if string(trailer[12:]) != nestedMagic {
		return nil, fmt.Errorf("storage: %s has a corrupt trailer", path)
	}
	flen := binary.LittleEndian.Uint64(trailer[:8])
	if flen > uint64(len(data)-16-len(nestedMagic)) {
		return nil, fmt.Errorf("storage: %s footer length out of bounds", path)
	}
	fstart := len(data) - 16 - int(flen)
	fb := data[fstart : len(data)-16]
	if crc32.ChecksumIEEE(fb) != binary.LittleEndian.Uint32(trailer[8:12]) {
		return nil, fmt.Errorf("storage: %s footer fails CRC check", path)
	}
	var footer nestedFooter
	if err := json.Unmarshal(fb, &footer); err != nil {
		return nil, fmt.Errorf("storage: %s footer: %w", path, err)
	}
	return &nestedReader{footer: footer, data: data}, nil
}

// scanNested runs the parallel scan engine (scan.go) over a nested PGN
// file: surviving chunks decode (in parallel when Scan.Parallelism
// allows) inside the worker, which also decodes and range-clips each
// entity's history and drops entities whose clipped history is empty
// (they still count toward ScanStats.RowsRead, matching the flat path).
// conv builds the output entity from the row and its clipped history.
func scanNested[T any](r *nestedReader, opts ReadOptions, conv func(rw nestedRow, h []core.HistoryItem) T) ([]T, ScanStats, error) {
	rng := opts.Range
	pushdown := !rng.IsEmpty()
	return scanFileAs(r.data, opts, r.footer.Chunks,
		func(cm nestedChunkMeta) bool {
			return pushdown && (cm.MinFirstStart >= int64(rng.End) || cm.MaxLastEnd <= int64(rng.Start))
		},
		func(cm nestedChunkMeta) (int64, int) { return cm.Offset, cm.Length },
		"storage.pgn.chunk",
		func(chunk []byte, cm nestedChunkMeta, sc *decodeScratch) (chunkOut[T], error) {
			rows, err := decodeNestedChunk(chunk, cm, sc)
			if err != nil {
				return chunkOut[T]{}, err
			}
			out := chunkOut[T]{rows: make([]T, 0, len(rows))}
			for _, rw := range rows {
				if pushdown && (rw.firstStart >= int64(rng.End) || rw.lastEnd <= int64(rng.Start)) {
					continue
				}
				out.read++
				h, err := decodeHistory(rw.history, rw.keys)
				if err != nil {
					if opts.Permissive {
						out.corrupt++
						continue
					}
					return chunkOut[T]{}, err
				}
				h = clipHistory(h, rng)
				if len(h) == 0 {
					continue
				}
				out.rows = append(out.rows, conv(rw, h))
			}
			return out, nil
		})
}

// decodeNestedChunk decodes one nested chunk into rows drawn from the
// pooled scratch buffer sc; like decodeChunk, the returned slice is
// only valid until sc goes back to the pool, and history/keys alias the
// chunk bytes and its decoded key table.
func decodeNestedChunk(chunk []byte, cm nestedChunkMeta, sc *decodeScratch) ([]nestedRow, error) {
	if len(chunk) != cm.Length {
		return nil, fmt.Errorf("storage: nested chunk has %d bytes, want %d", len(chunk), cm.Length)
	}
	if crc32.ChecksumIEEE(chunk) != cm.CRC {
		return nil, fmt.Errorf("storage: nested chunk at offset %d fails CRC check", cm.Offset)
	}
	if len(cm.ColLens) != 7 {
		return nil, fmt.Errorf("storage: nested chunk has %d columns, want 7", len(cm.ColLens))
	}
	var cols [7][]byte
	pos := 0
	for i, l := range cm.ColLens {
		if l < 0 || l > len(chunk)-pos {
			return nil, fmt.Errorf("storage: nested column %d overruns chunk", i)
		}
		cols[i] = chunk[pos : pos+l]
		pos += l
	}
	keys, err := decodeKeyTable(cols[6])
	if err != nil {
		return nil, err
	}
	// Every row takes at least one byte of the id column.
	n := cm.Rows
	if n < 0 || n > len(cols[0]) {
		return nil, fmt.Errorf("storage: nested chunk claims %d rows in a %d-byte id column", n, len(cols[0]))
	}
	ids, err := decodeDeltaIntsInto(sc.int64s(0, n), cols[0])
	if err != nil {
		return nil, err
	}
	srcs, err := decodeDeltaIntsInto(sc.int64s(1, n), cols[1])
	if err != nil {
		return nil, err
	}
	dsts, err := decodeDeltaIntsInto(sc.int64s(2, n), cols[2])
	if err != nil {
		return nil, err
	}
	firsts, err := decodeDeltaIntsInto(sc.int64s(3, n), cols[3])
	if err != nil {
		return nil, err
	}
	lasts, err := decodeDeltaIntsInto(sc.int64s(4, n), cols[4])
	if err != nil {
		return nil, err
	}
	hr := &byteReader{buf: cols[5]}
	rows := sc.nestedRowBuf(n)
	for i := 0; i < n; i++ {
		hl, err := hr.uvarint()
		if err != nil {
			return nil, err
		}
		hb, err := hr.bytes(int(hl))
		if err != nil {
			return nil, err
		}
		rows[i] = nestedRow{id: ids[i], src: srcs[i], dst: dsts[i], firstStart: firsts[i], lastEnd: lasts[i], history: hb, keys: keys}
	}
	return rows, nil
}

// ReadNestedVertices reads OG vertices with time-range pushdown;
// history items are clipped to rng.
func ReadNestedVertices(path string, rng temporal.Interval) ([]core.OGVertex, ScanStats, error) {
	return ReadNestedVerticesOpts(path, ReadOptions{Range: rng})
}

// ReadNestedVerticesOpts is ReadNestedVertices with full read options
// (Permissive mode, fault-injection hook, scan parallelism).
func ReadNestedVerticesOpts(path string, opts ReadOptions) ([]core.OGVertex, ScanStats, error) {
	r, err := openNested(path)
	if err != nil {
		return nil, ScanStats{}, err
	}
	if r.footer.Kind != "vertices" {
		return nil, ScanStats{}, fmt.Errorf("storage: %s holds %s, want vertices", path, r.footer.Kind)
	}
	return scanNested(r, opts, func(rw nestedRow, h []core.HistoryItem) core.OGVertex {
		return core.OGVertex{ID: core.VertexID(rw.id), History: h}
	})
}

// ReadNestedEdgesOpts reads OG edges with time-range pushdown under
// the given read options.
func ReadNestedEdgesOpts(path string, opts ReadOptions) ([]core.OGEdge, ScanStats, error) {
	r, err := openNested(path)
	if err != nil {
		return nil, ScanStats{}, err
	}
	if r.footer.Kind != "edges" {
		return nil, ScanStats{}, fmt.Errorf("storage: %s holds %s, want edges", path, r.footer.Kind)
	}
	return scanNested(r, opts, func(rw nestedRow, h []core.HistoryItem) core.OGEdge {
		return core.OGEdge{ID: core.EdgeID(rw.id), Src: core.VertexID(rw.src), Dst: core.VertexID(rw.dst), History: h}
	})
}

func clipHistory(h []core.HistoryItem, rng temporal.Interval) []core.HistoryItem {
	if rng.IsEmpty() {
		return h
	}
	out := make([]core.HistoryItem, 0, len(h))
	for _, it := range h {
		iv := it.Interval.Intersect(rng)
		if iv.IsEmpty() {
			continue
		}
		out = append(out, core.HistoryItem{Interval: iv, Props: it.Props})
	}
	return out
}
