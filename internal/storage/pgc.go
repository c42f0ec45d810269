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

// row is the flat on-disk record: vertex rows leave Src/Dst zero and
// the isEdge flag distinguishes files, not rows. The write path carries
// the property set itself (p); the read path carries the encoded blob
// plus the chunk's decoded key table.
type row struct {
	id       int64
	src, dst int64
	start    int64
	end      int64
	p        props.Props
	propb    []byte
	keys     []props.Key
}

// chunkMeta is the footer entry for one chunk.
type chunkMeta struct {
	Rows     int      `json:"rows"`
	Offset   int64    `json:"offset"`
	Length   int      `json:"length"`
	CRC      uint32   `json:"crc"`
	MinStart int64    `json:"minStart"`
	MaxStart int64    `json:"maxStart"`
	MinEnd   int64    `json:"minEnd"`
	MaxEnd   int64    `json:"maxEnd"`
	MinID    int64    `json:"minId"`
	MaxID    int64    `json:"maxId"`
	ColLens  []int    `json:"colLens"` // lengths of the column sections inside the chunk
	_        struct{} `json:"-"`
}

// fileFooter is the PGC footer, stored as JSON before the trailer.
type fileFooter struct {
	Version   int         `json:"version"`
	Kind      string      `json:"kind"` // "vertices" | "edges"
	RowCount  int         `json:"rowCount"`
	ChunkRows int         `json:"chunkRows"`
	SortOrder string      `json:"sortOrder"`
	Chunks    []chunkMeta `json:"chunks"`
}

// WriteOptions configures PGC writes.
type WriteOptions struct {
	// Order selects the on-disk sort order; see the package comment.
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
	_, err := writePGC(path, "vertices", vertexRows(states), opts)
	return err
}

// WriteEdges writes edge states to a PGC file at path, atomically.
func WriteEdges(path string, states []core.EdgeTuple, opts WriteOptions) error {
	_, err := writePGC(path, "edges", edgeRows(states), opts)
	return err
}

func vertexRows(states []core.VertexTuple) []row {
	rows := make([]row, len(states))
	for i, v := range states {
		rows[i] = row{
			id:    int64(v.ID),
			start: int64(v.Interval.Start),
			end:   int64(v.Interval.End),
			p:     v.Props,
		}
	}
	return rows
}

func edgeRows(states []core.EdgeTuple) []row {
	rows := make([]row, len(states))
	for i, e := range states {
		rows[i] = row{
			id:    int64(e.ID),
			src:   int64(e.Src),
			dst:   int64(e.Dst),
			start: int64(e.Interval.Start),
			end:   int64(e.Interval.End),
			p:     e.Props,
		}
	}
	return rows
}

func sortRows(rows []row, order SortOrder) {
	switch order {
	case SortStructural:
		slices.SortFunc(rows, func(a, b row) int {
			return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.id, b.id))
		})
	default:
		slices.SortFunc(rows, func(a, b row) int {
			return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.start, b.start))
		})
	}
}

// writePGC atomically writes one PGC file and returns its manifest
// entry (stage + commit in one step, for standalone writers).
func writePGC(path, kind string, rows []row, opts WriteOptions) (ManifestEntry, error) {
	sf, ent, err := stagePGC(path, kind, rows, opts)
	if err != nil {
		return ent, err
	}
	return ent, sf.commit(opts.FaultHook)
}

// stagePGC writes one PGC file to its temp name, fsyncs it, and returns
// the staged file plus the manifest entry it will commit as.
func stagePGC(path, kind string, rows []row, opts WriteOptions) (stagedFile, ManifestEntry, error) {
	sortRows(rows, opts.Order)
	sf, sum, err := writeStaged(path, opts.FaultHook, func(w io.Writer) error {
		return encodePGC(w, kind, rows, opts)
	})
	ent := ManifestEntry{
		Name:      filepath.Base(path),
		Size:      sum.size,
		CRC:       sum.crc,
		Rows:      len(rows),
		SortOrder: opts.Order.String(),
	}
	return sf, ent, err
}

// encodePGC streams the PGC layout — magic, chunks, JSON footer,
// trailer — to w. Rows must already be sorted.
func encodePGC(w io.Writer, kind string, rows []row, opts WriteOptions) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	offset := int64(len(magic))
	footer := fileFooter{
		Version:   2,
		Kind:      kind,
		RowCount:  len(rows),
		ChunkRows: opts.chunkRows(),
		SortOrder: opts.Order.String(),
	}
	var data []byte
	for lo := 0; lo < len(rows); lo += footer.ChunkRows {
		hi := min(lo+footer.ChunkRows, len(rows))
		var meta chunkMeta
		data, meta = encodeChunk(data, rows[lo:hi])
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
	// Trailer: footer length, footer CRC (the footer carries the chunk
	// metadata the data CRCs depend on, so it needs its own checksum),
	// magic.
	var trailer [16]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(len(fb)))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.ChecksumIEEE(fb))
	copy(trailer[12:], magic)
	_, err = w.Write(trailer[:])
	return err
}

// encodeChunk lays out a chunk column-by-column in buf[:0] and computes
// its zone map. Property blobs reference the chunk's key dictionary,
// appended as the seventh column; they share one buffer, so a chunk's
// allocations do not grow with its rows.
func encodeChunk(buf []byte, rows []row) ([]byte, chunkMeta) {
	dict := buildKeyDict(func(yield func(props.Props)) {
		for _, r := range rows {
			yield(r.p)
		}
	})
	meta := chunkMeta{Rows: len(rows), ColLens: make([]int, 0, 7)}
	var blobs []byte
	vals := make([][]byte, len(rows))
	for i, r := range rows {
		// A later append may move blobs, but it never rewrites the bytes
		// an earlier row's slice points at.
		at := len(blobs)
		blobs = appendProps(blobs, r.p, &dict)
		vals[i] = blobs[at:]
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
	at := 0
	col := func(data []byte) []byte {
		meta.ColLens = append(meta.ColLens, len(data)-at)
		at = len(data)
		return data
	}
	data := col(appendDeltaInts(buf[:0], rows, func(r *row) int64 { return r.id }))
	data = col(appendDeltaInts(data, rows, func(r *row) int64 { return r.src }))
	data = col(appendDeltaInts(data, rows, func(r *row) int64 { return r.dst }))
	data = col(appendDeltaInts(data, rows, func(r *row) int64 { return r.start }))
	data = col(appendDeltaInts(data, rows, func(r *row) int64 { return r.end }))
	data = col(appendDictColumn(data, vals))
	data = col(appendKeyTable(data, &dict))
	meta.Length = len(data)
	meta.CRC = crc32.ChecksumIEEE(data)
	return data, meta
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

// reader reads a PGC file with optional time-range pushdown.
type reader struct {
	path   string
	footer fileFooter
	data   []byte
}

func openPGC(path string) (*reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", path, err)
	}
	if len(data) < len(magic)+16 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("storage: %s is not a PGC file", path)
	}
	trailer := data[len(data)-16:]
	if string(trailer[12:]) != magic {
		return nil, fmt.Errorf("storage: %s has a corrupt trailer", path)
	}
	flen := binary.LittleEndian.Uint64(trailer[:8])
	if flen > uint64(len(data)-16-len(magic)) {
		return nil, fmt.Errorf("storage: %s footer length %d out of bounds", path, flen)
	}
	fstart := len(data) - 16 - int(flen)
	fb := data[fstart : len(data)-16]
	if crc32.ChecksumIEEE(fb) != binary.LittleEndian.Uint32(trailer[8:12]) {
		return nil, fmt.Errorf("storage: %s footer fails CRC check", path)
	}
	var footer fileFooter
	if err := json.Unmarshal(fb, &footer); err != nil {
		return nil, fmt.Errorf("storage: %s footer: %w", path, err)
	}
	return &reader{path: path, footer: footer, data: data}, nil
}

// chunkBytes bounds-checks one chunk's extent and returns its raw
// bytes, routed through the fault-injection hook when installed.
func chunkBytes(data []byte, offset int64, length int, site string, hook func(string, []byte) []byte) ([]byte, error) {
	if offset < 0 || length < 0 || offset > int64(len(data))-int64(length) {
		return nil, fmt.Errorf("storage: chunk out of bounds")
	}
	chunk := data[offset : offset+int64(length)]
	if hook != nil {
		chunk = hook(site, chunk)
	}
	return chunk, nil
}

// scanFlat runs the parallel scan engine (scan.go) over a flat PGC
// file: chunks whose zone map may overlap opts.Range are decoded (in
// parallel when Scan.Parallelism allows), row-filtered, and their
// property blobs decoded inside the worker, with conv building the
// output tuple. A zero range (empty interval) disables pushdown and
// reads everything. In Permissive mode corrupt chunks are skipped and
// counted, and rows whose property blob fails to decode are dropped and
// counted, instead of aborting the scan.
func scanFlat[T any](r *reader, opts ReadOptions, conv func(rw row, p props.Props, iv temporal.Interval) T) ([]T, ScanStats, error) {
	rng := opts.Range
	pushdown := !rng.IsEmpty()
	return scanFileAs(r.data, opts, r.footer.Chunks,
		func(cm chunkMeta) bool {
			// Chunk overlaps [rng.Start, rng.End) only if some row's
			// [start, end) can intersect it: need start < rng.End and
			// end > rng.Start.
			return pushdown && (cm.MinStart >= int64(rng.End) || cm.MaxEnd <= int64(rng.Start))
		},
		func(cm chunkMeta) (int64, int) { return cm.Offset, cm.Length },
		"storage.pgc.chunk",
		func(chunk []byte, cm chunkMeta, sc *decodeScratch) (chunkOut[T], error) {
			rows, err := decodeChunk(chunk, cm, sc)
			if err != nil {
				return chunkOut[T]{}, err
			}
			out := chunkOut[T]{rows: make([]T, 0, len(rows))}
			for _, rw := range rows {
				if pushdown {
					iv := temporal.Interval{Start: temporal.Time(rw.start), End: temporal.Time(rw.end)}
					if !iv.Overlaps(rng) {
						continue
					}
				}
				out.read++
				p, err := decodeProps(rw.propb, rw.keys)
				if err != nil {
					if opts.Permissive {
						out.corrupt++
						continue
					}
					return chunkOut[T]{}, err
				}
				out.rows = append(out.rows, conv(rw, p, clip(rw.start, rw.end, rng)))
			}
			return out, nil
		})
}

// decodeChunk decodes one flat chunk into rows drawn from the pooled
// scratch buffer sc: the returned slice and its integer fields alias
// sc and are only valid until sc is returned to the pool; propb/keys
// alias the chunk bytes and the chunk's freshly decoded key table.
func decodeChunk(chunk []byte, cm chunkMeta, sc *decodeScratch) ([]row, error) {
	if len(chunk) != cm.Length {
		return nil, fmt.Errorf("storage: chunk has %d bytes, want %d", len(chunk), cm.Length)
	}
	if crc32.ChecksumIEEE(chunk) != cm.CRC {
		return nil, fmt.Errorf("storage: chunk at offset %d fails CRC check", cm.Offset)
	}
	if len(cm.ColLens) != 7 {
		return nil, fmt.Errorf("storage: chunk has %d columns, want 7", len(cm.ColLens))
	}
	var cols [7][]byte
	pos := 0
	for i, l := range cm.ColLens {
		if l < 0 || l > len(chunk)-pos {
			return nil, fmt.Errorf("storage: column %d overruns chunk", i)
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
		return nil, fmt.Errorf("storage: chunk claims %d rows in a %d-byte id column", n, len(cols[0]))
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
	starts, err := decodeDeltaIntsInto(sc.int64s(3, n), cols[3])
	if err != nil {
		return nil, err
	}
	ends, err := decodeDeltaIntsInto(sc.int64s(4, n), cols[4])
	if err != nil {
		return nil, err
	}
	pbs, err := decodeDictColumn(cols[5], n)
	if err != nil {
		return nil, err
	}
	rows := sc.rowBuf(n)
	for i := 0; i < n; i++ {
		rows[i] = row{id: ids[i], src: srcs[i], dst: dsts[i], start: starts[i], end: ends[i], propb: pbs[i], keys: keys}
	}
	return rows, nil
}

// ReadVertices reads vertex states from a PGC file, applying time-range
// pushdown when rng is non-empty. States are clipped to rng.
func ReadVertices(path string, rng temporal.Interval) ([]core.VertexTuple, ScanStats, error) {
	return ReadVerticesOpts(path, ReadOptions{Range: rng})
}

// ReadVerticesOpts is ReadVertices with full read options (Permissive
// mode, fault-injection hook, scan parallelism).
func ReadVerticesOpts(path string, opts ReadOptions) ([]core.VertexTuple, ScanStats, error) {
	r, err := openPGC(path)
	if err != nil {
		return nil, ScanStats{}, err
	}
	if r.footer.Kind != "vertices" {
		return nil, ScanStats{}, fmt.Errorf("storage: %s holds %s, want vertices", path, r.footer.Kind)
	}
	return scanFlat(r, opts, func(rw row, p props.Props, iv temporal.Interval) core.VertexTuple {
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
	r, err := openPGC(path)
	if err != nil {
		return nil, ScanStats{}, err
	}
	if r.footer.Kind != "edges" {
		return nil, ScanStats{}, fmt.Errorf("storage: %s holds %s, want edges", path, r.footer.Kind)
	}
	return scanFlat(r, opts, func(rw row, p props.Props, iv temporal.Interval) core.EdgeTuple {
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
