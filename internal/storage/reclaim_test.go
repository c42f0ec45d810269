package storage

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// heldFiles copies what r holds.
func heldFiles(r *Reclaimer) []*os.File {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.held)
}

// A save with a Reclaimer over a committed directory holds the four
// data files and the MANIFEST it replaces: each held file has lost its
// name, the directory lists exactly the new layout, and it loads. Close
// releases them, and a Hold after Close holds nothing.
func TestReclaimerHoldsReplacedFiles(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 60)
	r := new(Reclaimer)
	next := core.NewVE(testCtx(), sampleVertices(200), sampleEdges(100))
	if err := SaveGraph(dir, next, SaveOptions{ChunkRows: 32, Reclaim: r}); err != nil {
		t.Fatal(err)
	}
	held := heldFiles(r)
	if len(held) != 5 {
		t.Fatalf("holding %d files, want the 4 data files and the MANIFEST", len(held))
	}
	for _, f := range held {
		info, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if st, ok := info.Sys().(*syscall.Stat_t); ok && st.Nlink != 0 {
			t.Errorf("held %s still has %d links; the save should have replaced it", f.Name(), st.Nlink)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{FlatEdgesFile, NestedEdgesFile, ManifestFile, FlatVerticesFile, NestedVerticesFile}
	for i, name := range want {
		want[i] = filepath.Join(dir, name)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("directory holds %v, want %v", names, want)
	}
	g, _, err := Load(testCtx(), dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != next.NumVertices() {
		t.Errorf("reloaded %d vertices, want %d", g.NumVertices(), next.NumVertices())
	}

	r.Close()
	for _, f := range held {
		if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("%s not released by Close: %v", f.Name(), err)
		}
	}
	r.Hold(filepath.Join(dir, ManifestFile))
	if n := len(heldFiles(r)); n != 0 {
		t.Errorf("Hold after Close holds %d files", n)
	}
}

// Settle releases the held files, in the background, once they number
// maxHeld or take maxHeldBytes, and Close waits for it; a nil Reclaimer
// holds nothing.
func TestReclaimerSettles(t *testing.T) {
	dir := t.TempDir()
	small, big := filepath.Join(dir, "small"), filepath.Join(dir, "big")
	for _, p := range []string{small, big} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(big, maxHeldBytes); err != nil { // sparse: no blocks written
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		paths []string
	}{
		{"maxHeld files", slices.Repeat([]string{small}, maxHeld)},
		{"maxHeldBytes", []string{big}},
	} {
		r := new(Reclaimer)
		for _, p := range tc.paths[:len(tc.paths)-1] {
			r.Hold(p)
		}
		r.Settle()
		if n := len(heldFiles(r)); n != len(tc.paths)-1 {
			t.Errorf("%s: holding %d files below the bound after Settle, want %d", tc.name, n, len(tc.paths)-1)
		}
		r.Hold(tc.paths[len(tc.paths)-1])
		held := heldFiles(r)
		r.Settle()
		if n := len(heldFiles(r)); n != 0 {
			t.Errorf("%s: holding %d files at the bound after Settle, want 0", tc.name, n)
		}
		r.Close() // waits for the background release
		for _, f := range held {
			if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("%s: file not released: %v", tc.name, err)
			}
		}
	}
	if n := obsReclaimHeldBytes.Value(); n != 0 {
		t.Errorf("storage.reclaim_held_bytes = %d after every Close, want 0", n)
	}

	var none *Reclaimer
	none.Hold(small)
	none.Settle()
	none.Close()
}

// Holds, settles and Close from several goroutines at once (run under
// -race): after Close nothing is held and nothing more can be.
func TestReclaimerConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := new(Reclaimer)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				r.Hold(path)
				r.Settle()
			}
		}()
	}
	wg.Wait()
	r.Close()
	r.Hold(path)
	if n := len(heldFiles(r)); n != 0 {
		t.Errorf("holding %d files after Close", n)
	}
}

// A compaction with a Reclaimer holds the four data files, the MANIFEST
// and the retired log segment, and settles the Reclaimer when it
// returns: below the bounds they stay held, at them they are released.
func TestCompactSettlesWhatItHeld(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 60)
	r := new(Reclaimer)
	defer r.Close()
	l, _, err := wal.Open(dir, wal.Options{BeforeRetire: r.Hold})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	compact := func(id int64) {
		t.Helper()
		if _, err := l.Append(wal.Delta{Kind: wal.KindVertex, ID: id, Interval: temporal.MustInterval(1, 2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := Compact(testCtx(), dir, l, SaveOptions{Reclaim: r}); err != nil {
			t.Fatal(err)
		}
	}
	compact(9000)
	if n := len(heldFiles(r)); n != 6 {
		t.Errorf("holding %d files after a compaction, want 6", n)
	}
	for i := 1; len(heldFiles(r)) > 0; i++ {
		if i > maxHeld/6+1 {
			t.Fatalf("still holding %d files after %d compactions", len(heldFiles(r)), i)
		}
		compact(9000 + int64(i))
	}
}
