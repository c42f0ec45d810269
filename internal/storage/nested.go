package storage

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/temporal"
)

// The nested layout stores pre-grouped OG entities — one row per
// vertex/edge with its full history array — so that OG and OGC load
// without re-grouping. Interval data lives inside the nested history
// column, which a Parquet-style zone map cannot see; following the
// paper (Section 4), each row therefore also stores the first start and
// last end of its history as its lo and hi columns, and the file is
// sorted on these so the time-range pushdown still works. It is the
// flat container (pgc.go) with another magic, fault site and blob
// codec: each row's blob is its length-prefixed history.

// nestedChunkMeta is the footer entry for one nested chunk.
type nestedChunkMeta struct {
	chunkHead
	MinFirstStart int64 `json:"minFirstStart"`
	MaxFirstStart int64 `json:"maxFirstStart"`
	MinLastEnd    int64 `json:"minLastEnd"`
	MaxLastEnd    int64 `json:"maxLastEnd"`
	ColLens       []int `json:"colLens"`
}

func (m nestedChunkMeta) cols() []int                { return m.ColLens }
func (m nestedChunkMeta) span() (minLo, maxHi int64) { return m.MinFirstStart, m.MaxLastEnd }

// nestedLayout stores one entity a row, sorted on (first start, id).
var nestedLayout = layout[nestedChunkMeta]{
	magic:      nestedMagic,
	site:       "storage.pgn.chunk",
	fixedOrder: true,
	meta: func(h chunkHead, z zone, cols []int) nestedChunkMeta {
		return nestedChunkMeta{chunkHead: h, MinFirstStart: z.minLo, MaxFirstStart: z.maxLo,
			MinLastEnd: z.minHi, MaxLastEnd: z.maxHi, ColLens: cols}
	},
	appendBlobs: appendHistoryColumn,
	splitBlobs:  splitHistoryColumn,
}

// appendHistoryColumn is the nested blob column: every row's history,
// length-prefixed and stored plain (histories are unique per entity;
// dictionary encoding would not pay off).
func appendHistoryColumn(buf []byte, rows []row, d *chunkKeyDict) []byte {
	var hist []byte
	for i := range rows {
		hist = appendHistory(hist[:0], rows[i].hist, d)
		buf = binary.AppendUvarint(buf, uint64(len(hist)))
		buf = append(buf, hist...)
	}
	return buf
}

// splitHistoryColumn reverses appendHistoryColumn into the blob of each
// of rows.
func splitHistoryColumn(col []byte, rows []row) error {
	r := &byteReader{buf: col}
	for i := range rows {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if rows[i].blob, err = r.bytes(int(n)); err != nil {
			return err
		}
	}
	return nil
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
	rows := make([]row, len(vs))
	for i, v := range vs {
		rows[i] = nestedOf(int64(v.ID), 0, 0, v.History)
	}
	return writeRows(&nestedLayout, path, "vertices", rows, opts)
}

// ogNestedRows builds the nested rows of g straight from its
// partitions, sharing its histories.
func ogNestedRows(g *core.OG) (vrows, erows []row) {
	vrows = make([]row, 0, g.Vertices().Count())
	for _, part := range g.Vertices().Partitions() {
		for _, v := range part {
			vrows = append(vrows, nestedOf(int64(v.ID), 0, 0, v.Attr))
		}
	}
	erows = make([]row, 0, g.Edges().Count())
	for _, part := range g.Edges().Partitions() {
		for _, e := range part {
			erows = append(erows, nestedOf(int64(e.ID), int64(e.Src), int64(e.Dst), e.Attr))
		}
	}
	return vrows, erows
}

func nestedOf(id, src, dst int64, h []core.HistoryItem) row {
	first, last := historySpan(h)
	return row{id: id, src: src, dst: dst, lo: first, hi: last, hist: h}
}

// readNested reads a nested file: each surviving row's history decodes
// and is clipped to opts.Range, an entity whose clipped history is
// empty is dropped (it still counts toward ScanStats.RowsRead, as a
// flat row does), and conv builds the output entity from the row and
// its clipped history.
func readNested[T any](path, kind string, opts ReadOptions, conv func(rw *row, h []core.HistoryItem) T) ([]T, ScanStats, error) {
	return readFile(&nestedLayout, path, kind, opts, func(rw *row, keys []props.Key) (T, bool, error) {
		var zero T
		h, err := decodeHistory(rw.blob, keys)
		if err != nil {
			return zero, false, err
		}
		if h = clipHistory(h, opts.Range); len(h) == 0 {
			return zero, false, nil
		}
		return conv(rw, h), true, nil
	})
}

// ReadNestedVertices reads OG vertices with time-range pushdown;
// history items are clipped to rng.
func ReadNestedVertices(path string, rng temporal.Interval) ([]core.OGVertex, ScanStats, error) {
	return ReadNestedVerticesOpts(path, ReadOptions{Range: rng})
}

// ReadNestedVerticesOpts is ReadNestedVertices with full read options
// (Permissive mode, fault-injection hook, scan parallelism).
func ReadNestedVerticesOpts(path string, opts ReadOptions) ([]core.OGVertex, ScanStats, error) {
	return readNested(path, "vertices", opts, func(rw *row, h []core.HistoryItem) core.OGVertex {
		return core.OGVertex{ID: core.VertexID(rw.id), History: h}
	})
}

// ReadNestedEdgesOpts reads OG edges with time-range pushdown under
// the given read options.
func ReadNestedEdgesOpts(path string, opts ReadOptions) ([]core.OGEdge, ScanStats, error) {
	return readNested(path, "edges", opts, func(rw *row, h []core.HistoryItem) core.OGEdge {
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
