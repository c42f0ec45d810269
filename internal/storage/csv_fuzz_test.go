package storage

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/props"
)

// FuzzReadCSV feeds arbitrary bytes to ReadVerticesCSV and
// ReadEdgesCSV, the parsers of imported datasets;
// testdata/fuzz/FuzzReadCSV holds the seed corpus. They must never
// panic; input they reject must come back as an error and no states;
// and states they accept must be a fixed point of one round trip:
// reading what the matching writer writes for them yields them again,
// property kinds included.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if vs, err := ReadVerticesCSV(bytes.NewReader(data)); err != nil {
			if vs != nil {
				t.Fatalf("rejected vertices (%v) came back with %d states", err, len(vs))
			}
		} else {
			var buf bytes.Buffer
			if err := WriteVerticesCSV(&buf, vs); err != nil {
				t.Fatalf("write %v: %v", vs, err)
			}
			again, err := ReadVerticesCSV(&buf)
			if err != nil {
				t.Fatalf("the writer's bytes do not read back: %v\n%s", err, buf.Bytes())
			}
			if got, want := vertexText(again), vertexText(vs); got != want {
				t.Fatalf("round trip:\n got %s\nwant %s", got, want)
			}
		}
		if es, err := ReadEdgesCSV(bytes.NewReader(data)); err != nil {
			if es != nil {
				t.Fatalf("rejected edges (%v) came back with %d states", err, len(es))
			}
		} else {
			var buf bytes.Buffer
			if err := WriteEdgesCSV(&buf, es); err != nil {
				t.Fatalf("write %v: %v", es, err)
			}
			again, err := ReadEdgesCSV(&buf)
			if err != nil {
				t.Fatalf("the writer's bytes do not read back: %v\n%s", err, buf.Bytes())
			}
			if got, want := edgeText(again), edgeText(es); got != want {
				t.Fatalf("round trip:\n got %s\nwant %s", got, want)
			}
		}
	})
}

// vertexText and edgeText render states with every property's kind and
// encoded payload, so a value that changes kind (a float read back as
// an int) shows, and NaN equals itself.
func vertexText(vs []core.VertexTuple) string {
	var b []byte
	for _, v := range vs {
		b = strconv.AppendInt(b, int64(v.ID), 10)
		b = appendStateText(b, v.Interval.String(), v.Props)
	}
	return string(b)
}

func edgeText(es []core.EdgeTuple) string {
	var b []byte
	for _, e := range es {
		b = strconv.AppendInt(b, int64(e.ID), 10)
		b = strconv.AppendInt(append(b, ' '), int64(e.Src), 10)
		b = strconv.AppendInt(append(b, ' '), int64(e.Dst), 10)
		b = appendStateText(b, e.Interval.String(), e.Props)
	}
	return string(b)
}

func appendStateText(b []byte, iv string, p props.Props) []byte {
	b = append(append(b, ' '), iv...)
	p.Range(func(k props.Key, v props.Value) bool {
		kind, text := v.Encode()
		b = strconv.AppendQuote(append(b, ' '), k.Name())
		b = strconv.AppendQuote(append(strconv.AppendInt(append(b, '='), int64(kind), 10), ':'), text)
		return true
	})
	return append(b, '\n')
}
