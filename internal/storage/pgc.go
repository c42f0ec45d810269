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
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Scan metrics, aggregated process-wide in the obs registry alongside
// the per-call ScanStats return values: chunk reads, zone-map skips,
// rows and bytes read, and per-chunk decode time.
var (
	obsChunksRead   = obs.Default().Counter("storage.chunks_read")
	obsZoneMapSkips = obs.Default().Counter("storage.zone_map_skips")
	obsRowsRead     = obs.Default().Counter("storage.rows_read")
	obsBytesRead    = obs.Default().Counter("storage.bytes_read")
	obsDecode       = obs.Default().Histogram("storage.decode")

	// Graceful-degradation metrics: chunks/rows dropped by Permissive
	// reads instead of aborting the load.
	obsCorruptChunks = obs.Default().Counter("storage.corrupt_chunks_skipped")
	obsCorruptRows   = obs.Default().Counter("storage.corrupt_rows_dropped")
)

// ReadOptions configures PGC reads (flat and nested).
type ReadOptions struct {
	// Range restricts reading to states overlapping the interval
	// (clipped), applied via zone-map pushdown. Empty reads everything.
	Range temporal.Interval
	// Permissive degrades gracefully on data corruption: a chunk that
	// fails its bounds, CRC or decode check is skipped (counted in
	// ScanStats.ChunksCorrupt and the storage.corrupt_chunks_skipped
	// counter) and the remaining chunks are returned as partial data.
	// Footer corruption stays fatal either way — without the footer
	// there is no chunk index to salvage. Without Permissive any
	// corruption aborts the read.
	Permissive bool
	// ChunkHook, when non-nil, intercepts every chunk's raw bytes
	// before integrity checks — the storage-side fault-injection point
	// (internal/faults). Sites: "storage.pgc.chunk",
	// "storage.pgn.chunk". The hook must return the chunk to decode
	// (possibly a corrupted copy); it must not mutate its input, which
	// aliases the reader's file buffer. Hooks run during the sequential
	// survivor-selection phase, so their call order is independent of
	// Scan.Parallelism.
	ChunkHook func(site string, chunk []byte) []byte
	// Scan configures the parallel scan engine (scan.go): decode worker
	// count and cancellation context.
	Scan ScanOptions
}

// row is the on-disk record of both layouts: one state of a flat file
// or one entity of a nested file. lo and hi are the state's start and
// end, or the entity's first start and last end; vertex rows leave src
// and dst zero. The write path carries the payload being encoded (a
// state's props p, an entity's history hist); the read path carries the
// encoded blob, which decodes against the chunk's key table.
type row struct {
	id       int64
	src, dst int64
	lo, hi   int64
	p        props.Props
	hist     []core.HistoryItem
	blob     []byte
}

// chunkHead is the footer entry part both layouts share, and the order
// its JSON fields keep.
type chunkHead struct {
	Rows   int    `json:"rows"`
	Offset int64  `json:"offset"`
	Length int    `json:"length"`
	CRC    uint32 `json:"crc"`
}

func (h chunkHead) head() chunkHead { return h }

// chunkMeta is the footer entry for one flat chunk.
type chunkMeta struct {
	chunkHead
	MinStart int64 `json:"minStart"`
	MaxStart int64 `json:"maxStart"`
	MinEnd   int64 `json:"minEnd"`
	MaxEnd   int64 `json:"maxEnd"`
	MinID    int64 `json:"minId"`
	MaxID    int64 `json:"maxId"`
	ColLens  []int `json:"colLens"` // lengths of the column sections inside the chunk
}

func (m chunkMeta) cols() []int                { return m.ColLens }
func (m chunkMeta) span() (minLo, maxHi int64) { return m.MinStart, m.MaxEnd }

// chunkIndex is what the shared reader needs of a footer entry: its
// head, its column lengths, and the least lo and greatest hi of its
// rows, the zone map a range scan prunes on.
type chunkIndex interface {
	head() chunkHead
	cols() []int
	span() (minLo, maxHi int64)
}

// zone is a chunk's zone map as the encoder gathers it; each layout's
// footer entry keeps the part it stores.
type zone struct{ minLo, maxLo, minHi, maxHi, minID, maxID int64 }

// fileFooter is the footer of both layouts, stored as JSON before the
// trailer. Nested files record no sort order.
type fileFooter[M any] struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"` // "vertices" | "edges"
	RowCount  int    `json:"rowCount"`
	ChunkRows int    `json:"chunkRows"`
	SortOrder string `json:"sortOrder,omitempty"`
	Chunks    []M    `json:"chunks"`
}

// layout is what sets the flat (PGC) and nested (PGN) files apart: the
// magic, the fault site chunk reads pass, the footer entry built from a
// chunk's zone map, and the codec of the sixth column, the blobs. The
// five integer columns, the key table, the footer, the trailer, the
// zone-map pushdown and the scan are one code path for both.
type layout[M chunkIndex] struct {
	magic, site string
	// fixedOrder layouts always sort on (lo, id), SortStructural, and
	// record no order in footer or manifest, whatever WriteOptions.Order
	// says.
	fixedOrder bool
	meta       func(chunkHead, zone, []int) M
	// appendBlobs appends the blob column of rows, encoding their
	// property sets against d; splitBlobs reverses it into each row's
	// blob.
	appendBlobs func(buf []byte, rows []row, d *chunkKeyDict) []byte
	splitBlobs  func(col []byte, rows []row) error
}

// flatLayout stores one state a row, its props blob dictionary-encoded.
var flatLayout = layout[chunkMeta]{
	magic: magic,
	site:  "storage.pgc.chunk",
	meta: func(h chunkHead, z zone, cols []int) chunkMeta {
		return chunkMeta{chunkHead: h, MinStart: z.minLo, MaxStart: z.maxLo, MinEnd: z.minHi, MaxEnd: z.maxHi,
			MinID: z.minID, MaxID: z.maxID, ColLens: cols}
	},
	appendBlobs: appendPropsColumn,
	splitBlobs:  splitDictColumn,
}

// WriteOptions configures PGC writes.
type WriteOptions struct {
	// Order selects the on-disk sort order of flat files; see the
	// package comment. Nested files always sort on (first start, id).
	Order SortOrder
	// ChunkRows is the rows-per-chunk granularity of zone maps;
	// <= 0 selects the default (4096).
	ChunkRows int
	// FaultHook is the write-path crash-injection point (see WriteHook);
	// nil in production.
	FaultHook WriteHook
}

func (o WriteOptions) chunkRows() int {
	if o.ChunkRows > 0 {
		return o.ChunkRows
	}
	return defaultChunkSz
}

// WriteVertices writes vertex states to a PGC file at path, atomically:
// the file either keeps its previous content or holds the complete new
// data.
func WriteVertices(path string, states []core.VertexTuple, opts WriteOptions) error {
	return writeRows(&flatLayout, path, "vertices", vertexRows(states), opts)
}

// WriteEdges writes edge states to a PGC file at path, atomically.
func WriteEdges(path string, states []core.EdgeTuple, opts WriteOptions) error {
	return writeRows(&flatLayout, path, "edges", edgeRows(states), opts)
}

func vertexRows(states []core.VertexTuple) []row {
	rows := make([]row, len(states))
	for i, v := range states {
		rows[i] = row{id: int64(v.ID), lo: int64(v.Interval.Start), hi: int64(v.Interval.End), p: v.Props}
	}
	return rows
}

func edgeRows(states []core.EdgeTuple) []row {
	rows := make([]row, len(states))
	for i, e := range states {
		rows[i] = row{
			id: int64(e.ID), src: int64(e.Src), dst: int64(e.Dst),
			lo: int64(e.Interval.Start), hi: int64(e.Interval.End), p: e.Props,
		}
	}
	return rows
}

func sortRows(rows []row, order SortOrder) {
	switch order {
	case SortStructural:
		slices.SortFunc(rows, func(a, b row) int {
			return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.id, b.id))
		})
	default:
		slices.SortFunc(rows, func(a, b row) int {
			return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.lo, b.lo))
		})
	}
}

// writeRows atomically writes one file of layout l (stage and commit in
// one step, for standalone writers).
func writeRows[M chunkIndex](l *layout[M], path, kind string, rows []row, opts WriteOptions) error {
	sf, _, err := stageRows(l, path, kind, rows, opts)
	if err != nil {
		return err
	}
	return sf.commit(opts.FaultHook)
}

// stageRows sorts rows, writes them as one file of layout l to its temp
// name, fsyncs it, and returns the staged file plus the manifest entry
// it will commit as.
func stageRows[M chunkIndex](l *layout[M], path, kind string, rows []row, opts WriteOptions) (stagedFile, ManifestEntry, error) {
	order := opts.Order.String()
	if l.fixedOrder {
		opts.Order, order = SortStructural, ""
	}
	sortRows(rows, opts.Order)
	footer := fileFooter[M]{Version: 2, Kind: kind, RowCount: len(rows), ChunkRows: opts.chunkRows(), SortOrder: order}
	sf, sum, err := writeStaged(path, opts.FaultHook, func(w io.Writer) error {
		return encodeFile(l, w, &footer, rows)
	})
	ent := ManifestEntry{Name: filepath.Base(path), Size: sum.size, CRC: sum.crc, Rows: len(rows), SortOrder: order}
	return sf, ent, err
}

// encodeFile streams one file — magic, chunks, JSON footer, trailer —
// to w, filling in footer's chunk entries. Rows must already be sorted.
func encodeFile[M chunkIndex](l *layout[M], w io.Writer, footer *fileFooter[M], rows []row) error {
	if _, err := io.WriteString(w, l.magic); err != nil {
		return err
	}
	offset := int64(len(l.magic))
	var data []byte
	for lo := 0; lo < len(rows); lo += footer.ChunkRows {
		var meta M
		data, meta = encodeChunk(l, data, rows[lo:min(lo+footer.ChunkRows, len(rows))], offset)
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
	// Trailer: footer length, footer CRC (the footer carries the chunk
	// metadata the data CRCs depend on, so it needs its own checksum),
	// magic.
	var trailer [16]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(len(fb)))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.ChecksumIEEE(fb))
	copy(trailer[12:], l.magic)
	_, err = w.Write(trailer[:])
	return err
}

// encodeChunk lays out a chunk, starting at file offset offset,
// column by column in buf[:0] and builds its footer entry: the five
// integer columns, the layout's blob column, and the chunk's key
// dictionary, which every blob references, as the seventh column.
func encodeChunk[M chunkIndex](l *layout[M], buf []byte, rows []row, offset int64) ([]byte, M) {
	dict := buildKeyDict(func(yield func(props.Props)) {
		for _, r := range rows {
			yield(r.p)
			for _, it := range r.hist {
				yield(it.Props)
			}
		}
	})
	lens := make([]int, 0, 7)
	at := 0
	col := func(data []byte) []byte {
		lens = append(lens, len(data)-at)
		at = len(data)
		return data
	}
	data := col(appendDeltaInts(buf[:0], rows, func(r *row) int64 { return r.id }))
	data = col(appendDeltaInts(data, rows, func(r *row) int64 { return r.src }))
	data = col(appendDeltaInts(data, rows, func(r *row) int64 { return r.dst }))
	data = col(appendDeltaInts(data, rows, func(r *row) int64 { return r.lo }))
	data = col(appendDeltaInts(data, rows, func(r *row) int64 { return r.hi }))
	data = col(l.appendBlobs(data, rows, &dict))
	data = col(appendKeyTable(data, &dict))
	h := chunkHead{Rows: len(rows), Offset: offset, Length: len(data), CRC: crc32.ChecksumIEEE(data)}
	return data, l.meta(h, zoneOf(rows), lens)
}

// zoneOf gathers the zone map of a chunk's rows.
func zoneOf(rows []row) zone {
	var z zone
	for i, r := range rows {
		if i == 0 {
			z = zone{r.lo, r.lo, r.hi, r.hi, r.id, r.id}
			continue
		}
		z.minLo, z.maxLo = min(z.minLo, r.lo), max(z.maxLo, r.lo)
		z.minHi, z.maxHi = min(z.minHi, r.hi), max(z.maxHi, r.hi)
		z.minID, z.maxID = min(z.minID, r.id), max(z.maxID, r.id)
	}
	return z
}

// appendPropsColumn is the flat blob column: every row's props blob,
// dictionary-encoded. The blobs share one buffer, so a chunk's
// allocations do not grow with its rows.
func appendPropsColumn(buf []byte, rows []row, d *chunkKeyDict) []byte {
	var blobs []byte
	vals := make([][]byte, len(rows))
	for i := range rows {
		// A later append may move blobs, but it never rewrites the bytes
		// an earlier row's slice points at.
		at := len(blobs)
		blobs = appendProps(blobs, rows[i].p, d)
		vals[i] = blobs[at:]
	}
	return appendDictColumn(buf, vals)
}

// ScanStats reports what a predicate-pushdown scan did. Stats are
// accumulated in file order regardless of ScanOptions.Parallelism —
// a parallel scan reports exactly what the sequential scan would.
type ScanStats struct {
	// ChunksRead counts chunks that survived zone-map pushdown and were
	// handed to the decode phase; ChunksSkipped counts chunks pruned by
	// their zone maps (the storage.zone_map_skips counter).
	ChunksRead    int
	ChunksSkipped int
	// RowsRead counts rows passing the time-range filter; BytesRead is
	// the compressed chunk bytes the scan touched.
	RowsRead  int
	BytesRead int64
	// ChunksCorrupt counts chunks dropped by a Permissive read (always
	// 0 on strict reads, which abort instead).
	ChunksCorrupt int
	// RowsCorrupt counts rows dropped by a Permissive read because
	// their property blob failed to decode.
	RowsCorrupt int
	// WALReplayed counts write-ahead-log records replayed on top of the
	// committed files (after range clipping); WALSkipped counts corrupt
	// WAL records a Permissive load skipped. Both are 0 for plain file
	// reads — only Load replays the log.
	WALReplayed int
	WALSkipped  int
}

// container is one opened file of either layout.
type container[M any] struct {
	footer fileFooter[M]
	data   []byte
}

// openFile reads the file at path and checks its magic, trailer and
// footer CRC. M may be chunkHead to read only the shared part of each
// chunk's footer entry.
func openFile[M any](path, fileMagic string) (*container[M], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", path, err)
	}
	if len(data) < len(fileMagic)+16 || string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("storage: %s is not a %s file", path, fileMagic)
	}
	trailer := data[len(data)-16:]
	if string(trailer[12:]) != fileMagic {
		return nil, fmt.Errorf("storage: %s has a corrupt trailer", path)
	}
	flen := binary.LittleEndian.Uint64(trailer[:8])
	if flen > uint64(len(data)-16-len(fileMagic)) {
		return nil, fmt.Errorf("storage: %s footer length %d out of bounds", path, flen)
	}
	fb := data[len(data)-16-int(flen) : len(data)-16]
	if crc32.ChecksumIEEE(fb) != binary.LittleEndian.Uint32(trailer[8:12]) {
		return nil, fmt.Errorf("storage: %s footer fails CRC check", path)
	}
	c := &container[M]{data: data}
	if err := json.Unmarshal(fb, &c.footer); err != nil {
		return nil, fmt.Errorf("storage: %s footer: %w", path, err)
	}
	return c, nil
}

// openHeads opens a flat or nested file, by its extension, reading only
// each chunk's chunkHead.
func openHeads(path string) (*container[chunkHead], error) {
	if filepath.Ext(path) == ".pgn" {
		return openFile[chunkHead](path, nestedMagic)
	}
	return openFile[chunkHead](path, magic)
}

// chunkBytes bounds-checks one chunk's extent and returns its raw
// bytes, routed through the fault-injection hook when installed.
func chunkBytes(data []byte, h chunkHead, site string, hook func(string, []byte) []byte) ([]byte, error) {
	if h.Offset < 0 || h.Length < 0 || h.Offset > int64(len(data))-int64(h.Length) {
		return nil, fmt.Errorf("storage: chunk out of bounds")
	}
	chunk := data[h.Offset : h.Offset+int64(h.Length)]
	if hook != nil {
		chunk = hook(site, chunk)
	}
	return chunk, nil
}

// readFile runs the parallel scan engine (scan.go) over one file of
// layout l holding kind. A chunk or row whose [lo, hi) cannot meet
// opts.Range is skipped — the zone-map pushdown on a chunk's span and
// the row filter, one predicate; a zero range (empty interval) reads
// everything. Surviving chunks decode (in parallel when Scan.Parallelism
// allows), and decode turns each surviving row into its output inside
// the worker, returning ok=false to drop it. In Permissive mode corrupt
// chunks are skipped and counted, and rows whose blob fails to decode
// are dropped and counted, instead of aborting the scan.
func readFile[M chunkIndex, T any](l *layout[M], path, kind string, opts ReadOptions,
	decode func(rw *row, keys []props.Key) (T, bool, error)) ([]T, ScanStats, error) {
	r, err := openFile[M](path, l.magic)
	if err != nil {
		return nil, ScanStats{}, err
	}
	if r.footer.Kind != kind {
		return nil, ScanStats{}, fmt.Errorf("storage: %s holds %s, want %s", path, r.footer.Kind, kind)
	}
	rng := opts.Range
	// A state in [lo, hi) meets rng only if lo < rng.End and hi > rng.Start.
	outside := func(lo, hi int64) bool {
		return !rng.IsEmpty() && (lo >= int64(rng.End) || hi <= int64(rng.Start))
	}
	return scanFileAs(r.data, opts, r.footer.Chunks, l.site, outside,
		func(chunk []byte, cm M, sc *decodeScratch) (chunkOut[T], error) {
			rows, keys, err := decodeChunk(l, chunk, cm, sc)
			if err != nil {
				return chunkOut[T]{}, err
			}
			out := chunkOut[T]{rows: make([]T, 0, len(rows))}
			for i := range rows {
				if outside(rows[i].lo, rows[i].hi) {
					continue
				}
				out.read++
				t, ok, err := decode(&rows[i], keys)
				if err != nil {
					if opts.Permissive {
						out.corrupt++
						continue
					}
					return chunkOut[T]{}, err
				}
				if ok {
					out.rows = append(out.rows, t)
				}
			}
			return out, nil
		})
}

// decodeChunk decodes one chunk into rows drawn from the pooled scratch
// buffer sc, and returns its decoded key table beside them: the
// returned slice and its integer fields alias sc and are only valid
// until sc is returned to the pool; blobs alias the chunk bytes.
func decodeChunk[M chunkIndex](l *layout[M], chunk []byte, cm M, sc *decodeScratch) ([]row, []props.Key, error) {
	h, lens := cm.head(), cm.cols()
	if len(chunk) != h.Length {
		return nil, nil, fmt.Errorf("storage: chunk has %d bytes, want %d", len(chunk), h.Length)
	}
	if crc32.ChecksumIEEE(chunk) != h.CRC {
		return nil, nil, fmt.Errorf("storage: chunk at offset %d fails CRC check", h.Offset)
	}
	if len(lens) != 7 {
		return nil, nil, fmt.Errorf("storage: chunk has %d columns, want 7", len(lens))
	}
	var cols [7][]byte
	pos := 0
	for i, n := range lens {
		if n < 0 || n > len(chunk)-pos {
			return nil, nil, fmt.Errorf("storage: column %d overruns chunk", i)
		}
		cols[i] = chunk[pos : pos+n]
		pos += n
	}
	keys, err := decodeKeyTable(cols[6])
	if err != nil {
		return nil, nil, err
	}
	// Every row takes at least one byte of the id column.
	n := h.Rows
	if n < 0 || n > len(cols[0]) {
		return nil, nil, fmt.Errorf("storage: chunk claims %d rows in a %d-byte id column", n, len(cols[0]))
	}
	var ints [5][]int64
	for k := range ints {
		if ints[k], err = decodeDeltaIntsInto(sc.int64s(k, n), cols[k]); err != nil {
			return nil, nil, err
		}
	}
	rows := sc.rowBuf(n)
	for i := range rows {
		rows[i] = row{id: ints[0][i], src: ints[1][i], dst: ints[2][i], lo: ints[3][i], hi: ints[4][i]}
	}
	if err := l.splitBlobs(cols[5], rows); err != nil {
		return nil, nil, err
	}
	return rows, keys, nil
}

// readFlat reads a flat file: each surviving row's props blob decodes,
// and conv builds the output state from the row, its props and its
// interval clipped to opts.Range.
func readFlat[T any](path, kind string, opts ReadOptions, conv func(rw *row, p props.Props, iv temporal.Interval) T) ([]T, ScanStats, error) {
	return readFile(&flatLayout, path, kind, opts, func(rw *row, keys []props.Key) (T, bool, error) {
		p, err := decodeProps(rw.blob, keys)
		if err != nil {
			var zero T
			return zero, false, err
		}
		return conv(rw, p, clip(rw.lo, rw.hi, opts.Range)), true, nil
	})
}

// ReadVertices reads vertex states from a PGC file, applying time-range
// pushdown when rng is non-empty. States are clipped to rng.
func ReadVertices(path string, rng temporal.Interval) ([]core.VertexTuple, ScanStats, error) {
	return ReadVerticesOpts(path, ReadOptions{Range: rng})
}

// ReadVerticesOpts is ReadVertices with full read options (Permissive
// mode, fault-injection hook, scan parallelism).
func ReadVerticesOpts(path string, opts ReadOptions) ([]core.VertexTuple, ScanStats, error) {
	return readFlat(path, "vertices", opts, func(rw *row, p props.Props, iv temporal.Interval) core.VertexTuple {
		return core.VertexTuple{ID: core.VertexID(rw.id), Interval: iv, Props: p}
	})
}

// ReadEdges reads edge states from a PGC file, applying time-range
// pushdown when rng is non-empty.
func ReadEdges(path string, rng temporal.Interval) ([]core.EdgeTuple, ScanStats, error) {
	return ReadEdgesOpts(path, ReadOptions{Range: rng})
}

// ReadEdgesOpts is ReadEdges with full read options.
func ReadEdgesOpts(path string, opts ReadOptions) ([]core.EdgeTuple, ScanStats, error) {
	return readFlat(path, "edges", opts, func(rw *row, p props.Props, iv temporal.Interval) core.EdgeTuple {
		return core.EdgeTuple{
			ID:  core.EdgeID(rw.id),
			Src: core.VertexID(rw.src), Dst: core.VertexID(rw.dst),
			Interval: iv, Props: p,
		}
	})
}

func clip(start, end int64, rng temporal.Interval) temporal.Interval {
	iv := temporal.Interval{Start: temporal.Time(start), End: temporal.Time(end)}
	if rng.IsEmpty() {
		return iv
	}
	return iv.Intersect(rng)
}
