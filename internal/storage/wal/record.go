package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Kind tags what a Delta mutates.
type Kind uint8

const (
	// KindVertex is a vertex-state insertion.
	KindVertex Kind = 0
	// KindEdge is an edge-state insertion.
	KindEdge Kind = 1
)

// String renders the kind for reports and errors.
func (k Kind) String() string {
	switch k {
	case KindVertex:
		return "vertex"
	case KindEdge:
		return "edge"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Delta is one logged mutation: a vertex or edge temporal state to be
// appended to the graph. Deltas are insert-only (the paper's model is
// an ever-growing set of states; retraction would be a new record kind
// in a later format version). Src and Dst are meaningful only for
// KindEdge.
type Delta struct {
	// Kind selects vertex vs edge.
	Kind Kind
	// ID is the vertex or edge identity.
	ID int64
	// Src and Dst are the edge endpoints (KindEdge only).
	Src, Dst int64
	// Interval is the state's validity interval.
	Interval temporal.Interval
	// Props is the state's property set.
	Props props.Props
}

// VertexDelta wraps a vertex tuple as a Delta.
func VertexDelta(t core.VertexTuple) Delta {
	return Delta{Kind: KindVertex, ID: int64(t.ID), Interval: t.Interval, Props: t.Props}
}

// EdgeDelta wraps an edge tuple as a Delta.
func EdgeDelta(t core.EdgeTuple) Delta {
	return Delta{Kind: KindEdge, ID: int64(t.ID), Src: int64(t.Src), Dst: int64(t.Dst), Interval: t.Interval, Props: t.Props}
}

// VertexTuple converts a KindVertex delta back to the core tuple form;
// ok is false for other kinds.
func (d Delta) VertexTuple() (core.VertexTuple, bool) {
	if d.Kind != KindVertex {
		return core.VertexTuple{}, false
	}
	return core.VertexTuple{ID: core.VertexID(d.ID), Interval: d.Interval, Props: d.Props}, true
}

// EdgeTuple converts a KindEdge delta back to the core tuple form; ok
// is false for other kinds.
func (d Delta) EdgeTuple() (core.EdgeTuple, bool) {
	if d.Kind != KindEdge {
		return core.EdgeTuple{}, false
	}
	return core.EdgeTuple{
		ID: core.EdgeID(d.ID), Src: core.VertexID(d.Src), Dst: core.VertexID(d.Dst),
		Interval: d.Interval, Props: d.Props,
	}, true
}

// Record framing. Each record on disk is
//
//	[u32 payloadLen][u32 crc32(payload)][payload]
//
// with fixed-width little-endian prefixes so a scanner can classify a
// torn tail without decoding anything. The payload is
//
//	uvarint seq
//	u8      kind
//	varint  id, varint src, varint dst   (src/dst written only for edges)
//	varint  start, varint end            (interval bounds)
//	uvarint nprops, then per field:
//	        uvarint len(keyName), keyName bytes,
//	        u8 value kind, uvarint len(payload), payload bytes
//
// Property keys are written inline by NAME, sorted by name — the
// process-wide interned key ids (props.Key) are not stable across
// restarts, so the log never persists them. This mirrors the epoch-1
// inline-key chunk encoding; the WAL trades the per-chunk dictionary
// for per-record self-containment, which is what recovery wants.
const (
	frameHeaderLen = 8
	// maxRecordLen bounds a single record payload; a length prefix
	// beyond it is treated as corruption (or garbage after a torn
	// write), never allocated.
	maxRecordLen = 64 << 20
)

// appendUvarint / appendVarint are binary.AppendUvarint/AppendVarint
// spelled out against the repo's minimum toolchain.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// encodeRecord appends the framed record for (seq, d) to buf.
func encodeRecord(buf []byte, seq uint64, d Delta) []byte {
	payload := encodePayload(nil, seq, d)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// encodePayload appends the unframed record payload.
func encodePayload(buf []byte, seq uint64, d Delta) []byte {
	buf = appendUvarint(buf, seq)
	buf = append(buf, byte(d.Kind))
	buf = appendVarint(buf, d.ID)
	if d.Kind == KindEdge {
		buf = appendVarint(buf, d.Src)
		buf = appendVarint(buf, d.Dst)
	}
	buf = appendVarint(buf, int64(d.Interval.Start))
	buf = appendVarint(buf, int64(d.Interval.End))

	type kv struct {
		name string
		v    props.Value
	}
	fields := make([]kv, 0, d.Props.Len())
	d.Props.Range(func(k props.Key, v props.Value) bool {
		fields = append(fields, kv{k.Name(), v})
		return true
	})
	slices.SortFunc(fields, func(a, b kv) int { return strings.Compare(a.name, b.name) })
	buf = appendUvarint(buf, uint64(len(fields)))
	for _, f := range fields {
		buf = appendUvarint(buf, uint64(len(f.name)))
		buf = append(buf, f.name...)
		kind, payload := f.v.Encode()
		buf = append(buf, byte(kind))
		buf = appendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	return buf
}

// payloadReader is a bounds-checked cursor over one record payload.
type payloadReader struct {
	b   []byte
	off int
}

func (r *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated uvarint at payload offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated varint at payload offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *payloadReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("wal: truncated byte at payload offset %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *payloadReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("wal: %d-byte field overruns payload at offset %d", n, r.off)
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

// decodePayload parses one record payload (already CRC-verified).
func decodePayload(payload []byte) (seq uint64, d Delta, err error) {
	r := &payloadReader{b: payload}
	if seq, err = r.uvarint(); err != nil {
		return 0, Delta{}, err
	}
	k, err := r.byte()
	if err != nil {
		return 0, Delta{}, err
	}
	if k != byte(KindVertex) && k != byte(KindEdge) {
		return 0, Delta{}, fmt.Errorf("wal: unknown record kind %d", k)
	}
	d.Kind = Kind(k)
	if d.ID, err = r.varint(); err != nil {
		return 0, Delta{}, err
	}
	if d.Kind == KindEdge {
		if d.Src, err = r.varint(); err != nil {
			return 0, Delta{}, err
		}
		if d.Dst, err = r.varint(); err != nil {
			return 0, Delta{}, err
		}
	}
	start, err := r.varint()
	if err != nil {
		return 0, Delta{}, err
	}
	end, err := r.varint()
	if err != nil {
		return 0, Delta{}, err
	}
	d.Interval = temporal.Interval{Start: temporal.Time(start), End: temporal.Time(end)}
	nprops, err := r.uvarint()
	if err != nil {
		return 0, Delta{}, err
	}
	if nprops > uint64(len(payload)) {
		return 0, Delta{}, fmt.Errorf("wal: prop count %d exceeds payload size", nprops)
	}
	if nprops > 0 {
		var b props.Builder
		b.Grow(int(nprops))
		for i := uint64(0); i < nprops; i++ {
			klen, err := r.uvarint()
			if err != nil {
				return 0, Delta{}, err
			}
			name, err := r.bytes(klen)
			if err != nil {
				return 0, Delta{}, err
			}
			vk, err := r.byte()
			if err != nil {
				return 0, Delta{}, err
			}
			vlen, err := r.uvarint()
			if err != nil {
				return 0, Delta{}, err
			}
			vpayload, err := r.bytes(vlen)
			if err != nil {
				return 0, Delta{}, err
			}
			val, err := props.Decode(props.Kind(vk), string(vpayload))
			if err != nil {
				return 0, Delta{}, fmt.Errorf("wal: decode prop %q: %w", name, err)
			}
			b.Set(string(name), val)
		}
		d.Props = b.Build()
	}
	if r.off != len(payload) {
		return 0, Delta{}, fmt.Errorf("wal: %d trailing bytes after record payload", len(payload)-r.off)
	}
	return seq, d, nil
}
