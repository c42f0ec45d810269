package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/props"
	"repro/internal/temporal"
)

// FuzzDecodePayload feeds arbitrary bytes to the record payload
// decoder, the parser of every WAL record replayed after a crash. It
// must never panic; a payload it rejects must come back as an error
// with the zero sequence and the zero Delta, never a partly decoded
// one; and a payload it accepts must survive encodePayload → decode
// unchanged. Props are compared by their encoding, so a NaN float
// compares equal to itself.
func FuzzDecodePayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		seq, d, err := decodePayload(payload)
		if err != nil {
			if seq != 0 || !reflect.DeepEqual(d, Delta{}) {
				t.Fatalf("rejected payload (%v) came back partly decoded: seq %d, %+v", err, seq, d)
			}
			return
		}
		enc := encodePayload(nil, seq, d)
		seq2, d2, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("the encoder's bytes for seq %d %+v do not decode: %v", seq, d, err)
		}
		if seq2 != seq || d2.Kind != d.Kind || d2.ID != d.ID || d2.Src != d.Src || d2.Dst != d.Dst || d2.Interval != d.Interval {
			t.Fatalf("round trip: seq %d %+v decoded back as seq %d %+v", seq, d, seq2, d2)
		}
		if enc2 := encodePayload(nil, seq2, d2); !bytes.Equal(enc2, enc) {
			t.Fatalf("round trip changed the props: %+v decoded back as %+v", d.Props, d2.Props)
		}
	})
}

// FuzzOpenSegment writes arbitrary bytes as the segment files of a log
// — a, and b after it when b is not empty — and recovers the log every
// way there is: Inspect, a strict and a permissive Read, then a strict
// and a permissive Open, each Open on its own copy of the files, since
// Open repairs them. None may panic. Strict readers return a clean log
// or an error wrapping ErrCorrupt; a permissive Read and a permissive
// Open fail alike, and when they succeed the Read skips as many records
// as the Open recovers past and counts the same live records.
func FuzzOpenSegment(f *testing.F) {
	seg := func(first uint64, deltas ...Delta) []byte {
		b := encodeSegHeader(first)
		for i, d := range deltas {
			b = encodeRecord(b, first+uint64(i), d)
		}
		return b
	}
	v := Delta{Kind: KindVertex, ID: 1, Interval: temporal.Interval{Start: 0, End: 5}, Props: props.New("type", "p")}
	e := Delta{Kind: KindEdge, ID: 2, Src: 1, Dst: 1, Interval: temporal.Interval{Start: 1, End: 3}}
	two := seg(1, v, e)
	f.Add(two, []byte(nil))
	f.Add(two[:len(two)-3], []byte(nil))                                   // torn tail
	f.Add(two, seg(3, e))                                                  // two segments
	f.Add(two, seg(5, v))                                                  // a sequence gap between them
	f.Add(two[:segHeaderLen-2], seg(1, v))                                 // a torn header before the last
	f.Add(seg(1, v, v, v)[:len(two)+4], two)                               // a partial frame header mid-log
	f.Add([]byte("TWAL\x02\x00\x00\x00\x00\x00\x00\x00\x00"), []byte(nil)) // unknown version
	corrupt := slices.Clone(two)
	corrupt[segHeaderLen+frameHeaderLen] ^= 0xff // the first record fails its CRC
	f.Add(corrupt, []byte(nil))
	// A record whose CRC holds over a payload of an unknown kind.
	bad := []byte{2, 9}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(bad)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(bad))
	f.Add(append(append(seg(1, v), append(frame, bad...)...), encodeRecord(nil, 3, e)...), []byte(nil))

	write := func(t *testing.T, a, b []byte) string {
		dir := t.TempDir()
		for i, data := range [][]byte{a, b} {
			if i == 0 || len(data) > 0 {
				if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(i+1))), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}
	typed := func(t *testing.T, what string, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v does not wrap ErrCorrupt", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := write(t, a, b)
		if _, err := Inspect(dir); err != nil {
			t.Fatalf("Inspect: %v", err)
		}
		_, err := Read(dir, 0, false)
		typed(t, "strict Read", err)
		res, rerr := Read(dir, 0, true)
		typed(t, "permissive Read", rerr)

		l, _, err := Open(write(t, a, b), Options{})
		typed(t, "strict Open", err)
		if err == nil {
			l.Close()
		}
		l, rec, oerr := Open(dir, Options{Permissive: true})
		typed(t, "permissive Open", oerr)
		if (rerr == nil) != (oerr == nil) {
			t.Fatalf("permissive Read err %v, permissive Open err %v", rerr, oerr)
		}
		if oerr != nil {
			return
		}
		l.Close()
		if res.Skipped != rec.SkippedRecords || res.Records != rec.Records || res.LastSeq != rec.LastSeq {
			t.Fatalf("permissive Read skipped %d of %d records to seq %d; permissive Open recovered past %d of %d to seq %d",
				res.Skipped, res.Records, res.LastSeq, rec.SkippedRecords, rec.Records, rec.LastSeq)
		}
	})
}
