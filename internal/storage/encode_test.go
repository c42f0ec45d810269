package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
)

// snb150 is the seeded SNB-like graph the encoder tests save: 150
// persons over 24 snapshots, one state per vertex and per friendship.
func snb150() datagen.Dataset {
	return datagen.SNB(datagen.SNBConfig{Persons: 150, Snapshots: 24, FriendshipsPerPerson: 8, FirstNames: 40, Seed: 1})
}

// The files' bytes are part of the format: an encoder change that
// moves a byte of vertices.pgc or edges.pgc, in either sort order, or of
// the nested files fails here.
func TestFlatFilesGolden(t *testing.T) {
	want := map[string]string{
		"temporal/" + FlatVerticesFile:   "592c547eae5d6afc2532919e50fc5722ad9d32d4218aee0d7494523204ecc491",
		"temporal/" + FlatEdgesFile:      "94672588b4ebcd91aa0ebf0660402f9f8cb7449f67f1c5b9b813f1528e746ee4",
		"structural/" + FlatVerticesFile: "32cafe5d04bac19d25ebebbc0189a2211e5a47e08a4b11bcb8c4d44f1e24fd97",
		"structural/" + FlatEdgesFile:    "28cddc557ea009e126d43d9293f66f8febbb5bc1b6da0afffedf45871823cca9",
		"temporal/" + NestedVerticesFile: "cb8be722c712b0a2eaf057204cd49bfe6f6d27c171d0ef3bc044cb6d8b39c2b4",
		"temporal/" + NestedEdgesFile:    "7f04e41f5cedef6b542c7ec15e9765bfaa0f31d927d9edc852f6e9d6ebc298f7",
	}
	g := snb150().Graph(testCtx())
	for _, order := range []SortOrder{SortTemporal, SortStructural} {
		dir := t.TempDir()
		// The nested files do not depend on the flat order: write them once.
		nested := order == SortTemporal
		if err := SaveGraph(dir, g, SaveOptions{FlatOrder: order, ChunkRows: 128, SkipNested: !nested}); err != nil {
			t.Fatal(err)
		}
		names := []string{FlatVerticesFile, FlatEdgesFile}
		if nested {
			names = append(names, NestedVerticesFile, NestedEdgesFile)
		}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			key := order.String() + "/" + name
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}

// A flat save allocates per chunk, not per row: SNB-150 is 150 vertex
// and 1 193 edge rows, one chunk a file, so a per-row allocation
// anywhere on the encode path overshoots the bound several times.
func TestSaveFlatAllocations(t *testing.T) {
	g := snb150().Graph(testCtx())
	dir := t.TempDir()
	allocs := testing.AllocsPerRun(3, func() {
		if err := SaveGraph(dir, g, SaveOptions{SkipNested: true}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a flat SaveGraph of SNB-150: %.0f allocations", allocs)
	if allocs > 400 {
		t.Errorf("a flat SaveGraph of SNB-150 took %.0f allocations, want at most 400", allocs)
	}
}
