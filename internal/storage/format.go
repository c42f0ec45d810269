// Package storage implements PGC, the columnar on-disk graph format
// this reproduction uses in place of Apache Parquet on HDFS.
//
// A PGC file stores one relation (vertex states or edge states) as a
// sequence of row chunks; within a chunk each column is stored
// contiguously with a per-column encoding (zig-zag delta varints for
// integers, dictionary encoding for property sets) and CRC32 checksum.
// The footer records per-chunk, per-column min/max statistics (zone
// maps). Like Parquet, PGC has no index, but supports predicate
// pushdown over any column the data is sorted by: a time-range scan
// skips chunks whose zone maps prove no overlap.
//
// Two sort orders mirror the paper's Section 4 loading strategies:
//
//	SortTemporal   — (entity id, start): the history of an entity is
//	                 contiguous (temporal locality; used for VE)
//	SortStructural — (start, entity id): each snapshot is contiguous
//	                 (structural locality; used for RG, loads ~30% faster
//	                 for snapshot-oriented representations)
//
// The nested layout for OG/OGC stores one entity a row, its history
// array as the blob, with its first start and last end as the interval
// columns for pushdown. Both layouts are one container (pgc.go) and
// differ only in magic, fault site and blob-column codec; the nested
// codec lives in nested.go.
//
// Reads go through the parallel scan engine in scan.go: zone-map
// survivors are selected sequentially (keeping fault-injection
// deterministic), decoded concurrently by a worker pool sharing a
// process-wide buffer pool, and reassembled in chunk order, so results
// are byte-identical at any ScanOptions.Parallelism. Writes are atomic
// and a whole-directory save commits through a MANIFEST record. See
// DESIGN.md "Scan path & parallel decode" and "Durability & crash
// consistency" for the full architecture.
package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/props"
)

const (
	magic          = "PGC1"
	nestedMagic    = "PGN1"
	defaultChunkSz = 4096
)

// SortOrder selects the on-disk row order.
type SortOrder int

const (
	// SortTemporal orders rows by (entity id, interval start).
	SortTemporal SortOrder = iota
	// SortStructural orders rows by (interval start, entity id).
	SortStructural
)

// String names the sort order.
func (s SortOrder) String() string {
	if s == SortStructural {
		return "structural"
	}
	return "temporal"
}

// byteReader consumes varints and length-prefixed byte runs from a
// buffer.
type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: corrupt uvarint at offset %d", r.pos)
	}
	r.pos += n
	return x, nil
}

func (r *byteReader) varint() (int64, error) {
	x, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: corrupt varint at offset %d", r.pos)
	}
	r.pos += n
	return x, nil
}

// count reads an element count: a uvarint no larger than the bytes
// left, since every element takes at least one — so a corrupt count
// cannot make the caller allocate past the input's size.
func (r *byteReader) count() (uint64, error) {
	n, err := r.uvarint()
	if err == nil && n > uint64(len(r.buf)-r.pos) {
		err = fmt.Errorf("storage: count %d exceeds the %d bytes left at offset %d", n, len(r.buf)-r.pos, r.pos)
	}
	return n, err
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.pos {
		return nil, fmt.Errorf("storage: truncated read of %d bytes at offset %d", n, r.pos)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// appendDeltaInts appends field of every row to buf as zig-zag delta
// varints (first value absolute).
func appendDeltaInts[R any](buf []byte, rows []R, field func(*R) int64) []byte {
	prev := int64(0)
	for i := range rows {
		v := field(&rows[i])
		buf = binary.AppendVarint(buf, v-prev)
		prev = v
	}
	return buf
}

// decodeDeltaIntsInto decodes len(out) zig-zag delta varints into out:
// the scan engine's pooled scratch buffers (scan.go) pass reused
// columns here so steady-state chunk decoding allocates nothing for its
// integer columns.
func decodeDeltaIntsInto(out []int64, data []byte) ([]int64, error) {
	r := &byteReader{buf: data}
	prev := int64(0)
	for i := range out {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += d
		out[i] = prev
	}
	return out, nil
}

// chunkKeyDict is the per-chunk key dictionary built while encoding a
// chunk: the sorted distinct property labels of the chunk's rows, plus
// the interned-Key -> dictionary-index mapping used to encode blobs.
// fields and blob are scratch appendProps and appendHistory reuse
// across the chunk's rows.
type chunkKeyDict struct {
	names  []string
	idx    map[props.Key]int
	fields []encField
	blob   []byte
}

// encField is one property of the blob appendProps is encoding.
type encField struct {
	idx     int
	kind    props.Kind
	payload string
}

// buildKeyDict collects the distinct property labels of a batch of
// property sets into a name-sorted dictionary, so encoded chunks are
// byte-identical regardless of the process's intern order.
func buildKeyDict(sets func(func(props.Props))) chunkKeyDict {
	byKey := map[props.Key]string{}
	sets(func(p props.Props) {
		p.Range(func(k props.Key, _ props.Value) bool {
			if _, ok := byKey[k]; !ok {
				byKey[k] = k.Name()
			}
			return true
		})
	})
	d := chunkKeyDict{names: make([]string, 0, len(byKey)), idx: make(map[props.Key]int, len(byKey))}
	for _, name := range byKey {
		d.names = append(d.names, name)
	}
	sort.Strings(d.names)
	for k, name := range byKey {
		d.idx[k] = sort.SearchStrings(d.names, name)
	}
	return d
}

// appendKeyTable appends the dictionary as a chunk column: count,
// then per label (len, bytes).
func appendKeyTable(buf []byte, d *chunkKeyDict) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.names)))
	for _, name := range d.names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	return buf
}

// decodeKeyTable reverses appendKeyTable, interning every label once
// per chunk so row decoding is pure index work.
func decodeKeyTable(data []byte) ([]props.Key, error) {
	r := &byteReader{buf: data}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	keys := make([]props.Key, n)
	for i := range keys {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(int(l))
		if err != nil {
			return nil, err
		}
		keys[i] = props.KeyOf(string(b))
	}
	return keys, nil
}

// appendProps appends p's blob, encoded against the chunk key
// dictionary d, to buf: count, then per field (key dictionary index,
// kind, len, payload) in index order. With the dictionary name-sorted,
// the encoding is deterministic across processes. The fields are
// sorted in d's scratch, which every row of the chunk reuses.
func appendProps(buf []byte, p props.Props, d *chunkKeyDict) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.Len()))
	fields := d.fields[:0]
	p.Range(func(k props.Key, v props.Value) bool {
		kind, payload := v.Encode()
		fields = append(fields, encField{idx: d.idx[k], kind: kind, payload: payload})
		return true
	})
	slices.SortFunc(fields, func(a, b encField) int { return cmp.Compare(a.idx, b.idx) })
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, uint64(f.idx))
		buf = binary.AppendUvarint(buf, uint64(f.kind))
		buf = binary.AppendUvarint(buf, uint64(len(f.payload)))
		buf = append(buf, f.payload...)
	}
	d.fields = fields
	return buf
}

// decodeProps decodes a property blob against the chunk's decoded key
// table.
func decodeProps(data []byte, keys []props.Key) (props.Props, error) {
	r := &byteReader{buf: data}
	n, err := r.count()
	if err != nil {
		return props.Props{}, err
	}
	if n == 0 {
		return props.Props{}, nil
	}
	var b props.Builder
	b.Grow(int(n))
	for i := uint64(0); i < n; i++ {
		idx, err := r.uvarint()
		if err != nil {
			return props.Props{}, err
		}
		if idx >= uint64(len(keys)) {
			return props.Props{}, fmt.Errorf("storage: property key index %d out of range %d", idx, len(keys))
		}
		kind, err := r.uvarint()
		if err != nil {
			return props.Props{}, err
		}
		plen, err := r.uvarint()
		if err != nil {
			return props.Props{}, err
		}
		pb, err := r.bytes(int(plen))
		if err != nil {
			return props.Props{}, err
		}
		v, err := props.Decode(props.Kind(kind), string(pb))
		if err != nil {
			return props.Props{}, err
		}
		b.SetK(keys[idx], v)
	}
	return b.Build(), nil
}

// appendDictColumn appends vals as a dictionary-encoded column: the
// count and the distinct values in byte order (length-prefixed), then
// each row's index into them. It sorts row numbers by value rather than
// hashing copies of the values, so vals may be slices of one shared
// buffer.
func appendDictColumn(buf []byte, vals [][]byte) []byte {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(vals[a], vals[b]) })
	rank := make([]uint64, len(vals))
	distinct := 0
	for k, i := range order {
		if k == 0 || !bytes.Equal(vals[order[k-1]], vals[i]) {
			distinct++
		}
		rank[i] = uint64(distinct - 1)
	}
	buf = binary.AppendUvarint(buf, uint64(distinct))
	for k, i := range order {
		if k == 0 || rank[i] != rank[order[k-1]] {
			buf = binary.AppendUvarint(buf, uint64(len(vals[i])))
			buf = append(buf, vals[i]...)
		}
	}
	for _, r := range rank {
		buf = binary.AppendUvarint(buf, r)
	}
	return buf
}

// splitDictColumn reverses appendDictColumn into the blob of each of
// rows.
func splitDictColumn(data []byte, rows []row) error {
	r := &byteReader{buf: data}
	dn, err := r.count()
	if err != nil {
		return err
	}
	dict := make([][]byte, dn)
	for i := range dict {
		l, err := r.uvarint()
		if err != nil {
			return err
		}
		dict[i], err = r.bytes(int(l))
		if err != nil {
			return err
		}
	}
	for i := range rows {
		ix, err := r.uvarint()
		if err != nil {
			return err
		}
		if ix >= dn {
			return fmt.Errorf("storage: dictionary index %d out of range %d", ix, dn)
		}
		rows[i].blob = dict[ix]
	}
	return nil
}
