package wal

import (
	"bytes"
	"reflect"
	"testing"
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
