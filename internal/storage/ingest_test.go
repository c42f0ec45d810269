package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/storage/wal"
)

// TestAppendCSV appends a second SNB graph, exported as CSV, to a saved
// SNB-150 directory in batches of 7, and checks what AppendCSV reports
// and what VE and OG loads then hold: the base states plus exactly the
// appended ones. A malformed row after several batches fails naming
// the row and leaves exactly the acked batches durable, and a directory
// without a MANIFEST is refused.
func TestAppendCSV(t *testing.T) {
	ctx := testCtx()
	base := snb150().Graph(ctx)
	dir := t.TempDir()
	if err := SaveGraph(dir, base, SaveOptions{ChunkRows: 128}); err != nil {
		t.Fatal(err)
	}
	in := t.TempDir()
	extra := datagen.SNB(datagen.SNBConfig{Persons: 30, Snapshots: 24, FriendshipsPerPerson: 4, FirstNames: 10, Seed: 2}).Graph(ctx)
	if err := ExportCSV(in, extra); err != nil {
		t.Fatal(err)
	}
	// The appended states are what CSV import reads back, property
	// kinds included.
	avs, aes, err := ImportCSV(in)
	if err != nil {
		t.Fatal(err)
	}
	wantV := append(append([]core.VertexTuple(nil), base.VertexStates()...), avs...)
	wantE := append(append([]core.EdgeTuple(nil), base.EdgeStates()...), aes...)

	stats, err := AppendCSV(dir, in, 7, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(avs) + len(aes)
	if n <= 7 || stats.Records != n || stats.FirstSeq != 1 || stats.LastSeq != uint64(n) {
		t.Fatalf("AppendCSV = %+v, want %d records at seqs 1..%d", stats, n, n)
	}
	checkLoads := func(when string, wantV []core.VertexTuple, wantE []core.EdgeTuple) {
		t.Helper()
		for _, rep := range []core.Representation{core.RepVE, core.RepOG} {
			g, _, err := Load(ctx, dir, LoadOptions{Rep: rep})
			if err != nil {
				t.Fatalf("%s: %s load: %v", when, rep, err)
			}
			if got, want := sortedLines(vertexText(g.VertexStates())), sortedLines(vertexText(wantV)); got != want {
				t.Errorf("%s: %s load holds %d vertex states, want %d", when, rep, len(g.VertexStates()), len(wantV))
			}
			if got, want := sortedLines(edgeText(g.EdgeStates())), sortedLines(edgeText(wantE)); got != want {
				t.Errorf("%s: %s load holds %d edge states, want %d", when, rep, len(g.EdgeStates()), len(wantE))
			}
		}
	}
	checkLoads("after the append", wantV, wantE)

	// 30 good rows make four acked batches of 7; row 32 (line 1 is the
	// header) is malformed, so the two rows batched after them are lost.
	bad := t.TempDir()
	var b strings.Builder
	b.WriteString("id,start,end,type\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,person\n", 1000+i, i%20, i%20+3)
	}
	b.WriteString("x,0,5,person\n")
	if err := os.WriteFile(filepath.Join(bad, "vertices.csv"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	partial, err := AppendCSV(dir, bad, 7, wal.Options{})
	if err == nil || !strings.Contains(err.Error(), "row 32") {
		t.Fatalf("malformed row: err = %v, want one naming row 32", err)
	}
	if partial.Records != 28 || partial.FirstSeq != uint64(n)+1 || partial.LastSeq != uint64(n)+28 {
		t.Errorf("malformed input acked %+v, want 28 records at seqs %d..%d", partial, n+1, n+28)
	}
	acked, err := ReadVerticesCSV(strings.NewReader(strings.Join(strings.SplitAfter(b.String(), "\n")[:29], "")))
	if err != nil {
		t.Fatal(err)
	}
	checkLoads("after the malformed append", append(wantV, acked...), wantE)

	if _, err := AppendCSV(t.TempDir(), in, 7, wal.Options{}); !errors.Is(err, ErrIncompleteSave) {
		t.Errorf("directory without a MANIFEST: err = %v, want ErrIncompleteSave", err)
	}
}
