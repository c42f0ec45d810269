package storage

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParseManifest feeds arbitrary bytes to ParseManifest, the
// parser of a directory's commit record. It must never panic; bytes it
// rejects must come back as a nil manifest and an error that is
// ErrIncompleteSave or ErrManifestMismatch; and a manifest it accepts
// must survive encodeManifest → ParseManifest unchanged.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest("dir", data)
		if err != nil {
			if m != nil {
				t.Fatalf("rejected manifest (%v) came back as %+v", err, m)
			}
			if !errors.Is(err, ErrIncompleteSave) && !errors.Is(err, ErrManifestMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		c := *m
		enc, err := encodeManifest(&c)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		m2, err := ParseManifest("dir", enc)
		if err != nil {
			t.Fatalf("the encoder's bytes for %+v do not parse: %v\n%s", m, err, enc)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip: %+v parsed back as %+v", m, m2)
		}
	})
}
