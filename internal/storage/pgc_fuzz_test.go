package storage

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/temporal"
)

// fuzzFile writes data to a fresh file of the given name and returns
// its path.
func fuzzFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fuzzReadOpts are the strict reads whose results the fuzz targets
// check, and the permissive, range-restricted reads that only must not
// panic.
var (
	fuzzStrict     = ReadOptions{Scan: ScanOptions{Parallelism: 1}}
	fuzzPermissive = ReadOptions{Permissive: true, Range: temporal.MustInterval(2, 9), Scan: ScanOptions{Parallelism: 2}}
)

// sortedLines orders the lines of a vertexText/edgeText/nestedText
// rendering: a writer sorts the states it is given, so a round trip
// keeps the states but not necessarily their order.
func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	slices.Sort(lines)
	return strings.Join(lines, "")
}

// FuzzReadPGC feeds arbitrary bytes, as a file, to the flat PGC readers
// ReadVerticesOpts and ReadEdgesOpts; testdata/fuzz/FuzzReadPGC holds
// the seed corpus. They must never panic, strict or permissive; a
// strict read that rejects the file must return an error and no
// states; and the states a strict read accepts must be a fixed point of
// one round trip: writing them with the matching writer and reading the
// file back yields them again, up to order.
func FuzzReadPGC(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := fuzzFile(t, "in.pgc", data)
		ReadVerticesOpts(path, fuzzPermissive)
		ReadEdgesOpts(path, fuzzPermissive)
		if vs, _, err := ReadVerticesOpts(path, fuzzStrict); err != nil {
			if vs != nil {
				t.Fatalf("rejected vertices (%v) came back with %d states", err, len(vs))
			}
		} else {
			again := filepath.Join(t.TempDir(), "v.pgc")
			if err := WriteVertices(again, vs, WriteOptions{ChunkRows: 3}); err != nil {
				t.Fatalf("write: %v", err)
			}
			back, _, err := ReadVerticesOpts(again, fuzzStrict)
			if err != nil {
				t.Fatalf("the writer's file does not read back: %v", err)
			}
			if got, want := sortedLines(vertexText(back)), sortedLines(vertexText(vs)); got != want {
				t.Fatalf("round trip:\n got %s\nwant %s", got, want)
			}
		}
		if es, _, err := ReadEdgesOpts(path, fuzzStrict); err != nil {
			if es != nil {
				t.Fatalf("rejected edges (%v) came back with %d states", err, len(es))
			}
		} else {
			again := filepath.Join(t.TempDir(), "e.pgc")
			if err := WriteEdges(again, es, WriteOptions{ChunkRows: 3}); err != nil {
				t.Fatalf("write: %v", err)
			}
			back, _, err := ReadEdgesOpts(again, fuzzStrict)
			if err != nil {
				t.Fatalf("the writer's file does not read back: %v", err)
			}
			if got, want := sortedLines(edgeText(back)), sortedLines(edgeText(es)); got != want {
				t.Fatalf("round trip:\n got %s\nwant %s", got, want)
			}
		}
	})
}

// FuzzReadPGN is FuzzReadPGC for the nested layout's readers,
// ReadNestedVerticesOpts and ReadNestedEdgesOpts;
// testdata/fuzz/FuzzReadPGN holds the seed corpus. An entity whose
// history reads back empty is dropped by the reader, so the round trip
// compares the entities it returned.
func FuzzReadPGN(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := fuzzFile(t, "in.pgn", data)
		ReadNestedVerticesOpts(path, fuzzPermissive)
		ReadNestedEdgesOpts(path, fuzzPermissive)
		if vs, _, err := ReadNestedVerticesOpts(path, fuzzStrict); err != nil {
			if vs != nil {
				t.Fatalf("rejected vertices (%v) came back with %d entities", err, len(vs))
			}
		} else {
			again := filepath.Join(t.TempDir(), "v.pgn")
			if err := WriteNestedVertices(again, vs, WriteOptions{ChunkRows: 3}); err != nil {
				t.Fatalf("write: %v", err)
			}
			back, _, err := ReadNestedVerticesOpts(again, fuzzStrict)
			if err != nil {
				t.Fatalf("the writer's file does not read back: %v", err)
			}
			if got, want := sortedLines(nestedVertexText(back)), sortedLines(nestedVertexText(vs)); got != want {
				t.Fatalf("round trip:\n got %s\nwant %s", got, want)
			}
		}
		if es, _, err := ReadNestedEdgesOpts(path, fuzzStrict); err != nil {
			if es != nil {
				t.Fatalf("rejected edges (%v) came back with %d entities", err, len(es))
			}
		} else {
			again := filepath.Join(t.TempDir(), "e.pgn")
			rows := make([]row, len(es))
			for i, e := range es {
				rows[i] = nestedOf(int64(e.ID), int64(e.Src), int64(e.Dst), e.History)
			}
			if err := writeRows(&nestedLayout, again, "edges", rows, WriteOptions{ChunkRows: 3}); err != nil {
				t.Fatalf("write: %v", err)
			}
			back, _, err := ReadNestedEdgesOpts(again, fuzzStrict)
			if err != nil {
				t.Fatalf("the writer's file does not read back: %v", err)
			}
			if got, want := sortedLines(nestedEdgeText(back)), sortedLines(nestedEdgeText(es)); got != want {
				t.Fatalf("round trip:\n got %s\nwant %s", got, want)
			}
		}
	})
}

// nestedVertexText and nestedEdgeText render one line per entity: its
// ids, then every history item as appendStateText renders a state.
func nestedVertexText(vs []core.OGVertex) string {
	var b []byte
	for _, v := range vs {
		b = appendHistoryText(strconv.AppendInt(b, int64(v.ID), 10), v.History)
	}
	return string(b)
}

func nestedEdgeText(es []core.OGEdge) string {
	var b []byte
	for _, e := range es {
		b = strconv.AppendInt(b, int64(e.ID), 10)
		b = strconv.AppendInt(append(b, ' '), int64(e.Src), 10)
		b = strconv.AppendInt(append(b, ' '), int64(e.Dst), 10)
		b = appendHistoryText(b, e.History)
	}
	return string(b)
}

func appendHistoryText(b []byte, h []core.HistoryItem) []byte {
	for _, it := range h {
		b = appendStateText(append(b, " |"...), it.Interval.String(), it.Props)
		b = b[:len(b)-1] // one line per entity
	}
	return append(b, '\n')
}
