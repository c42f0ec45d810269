package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// The crash-consistency property (run by `make test-race`): loading a
// directory after a crash at ANY point of a save yields the old
// committed graph, a typed error (ErrIncompleteSave /
// ErrManifestMismatch), or — in Permissive mode — a best-effort
// partial; never a panic and never silently wrong data.

func typedCrashError(err error) bool {
	return errors.Is(err, ErrIncompleteSave) || errors.Is(err, ErrManifestMismatch)
}

// TestCrashMatrixSaveGraph crashes SaveGraph at every write site of
// every one of its five atomic writes (4 data files + MANIFEST) and
// checks the property above, then proves the directory is recoverable:
// RepairDir plus a re-run save must leave it clean and loading the new
// graph.
func TestCrashMatrixSaveGraph(t *testing.T) {
	sites := []string{
		"storage.write.create",
		"storage.write.short",
		"storage.write.sync",
		"storage.write.rename",
	}
	ctx := testCtx()
	oldG := core.NewVE(ctx, sampleVertices(20), sampleEdges(10))
	newG := core.NewVE(ctx, sampleVertices(40), sampleEdges(20))
	oldN, newN := oldG.NumVertices(), newG.NumVertices()

	for _, site := range sites {
		// A save fires each site 5 times (vertices.pgc, edges.pgc,
		// vertices.pgn, edges.pgn, MANIFEST); every=6 never fires and
		// must succeed.
		for n := 1; n <= 6; n++ {
			t.Run(fmt.Sprintf("%s/every=%d", site, n), func(t *testing.T) {
				dir := t.TempDir()
				if err := SaveGraph(dir, oldG, SaveOptions{ChunkRows: 8}); err != nil {
					t.Fatal(err)
				}
				inj := faults.New(42+int64(n), faults.Rule{Site: site, Kind: faults.Crash, Every: n})
				err := SaveGraph(dir, newG, SaveOptions{ChunkRows: 8, FaultHook: inj.WriteHook()})
				if inj.InjectedTotal() == 0 {
					if err != nil {
						t.Fatalf("uninjected save failed: %v", err)
					}
				} else {
					if err == nil {
						t.Fatal("crashed save reported success")
					}
					if !isCrash(err) {
						t.Fatalf("injected crash not classified as crash: %v", err)
					}
				}

				for _, rep := range []core.Representation{core.RepVE, core.RepOG} {
					g, _, lerr := Load(ctx, dir, LoadOptions{Rep: rep})
					switch {
					case lerr == nil:
						want := oldN
						if inj.InjectedTotal() == 0 {
							want = newN
						}
						// A strict load that succeeds must see a committed
						// graph — never a mix of old and new files.
						if g.NumVertices() != want {
							t.Errorf("strict %v load after crash: %d vertices, want %d",
								rep, g.NumVertices(), want)
						}
					case !typedCrashError(lerr):
						t.Errorf("strict %v load after crash: untyped error %v", rep, lerr)
					}
					// Permissive must never panic: nil or a typed error.
					pg, _, perr := Load(ctx, dir, LoadOptions{Rep: rep, Permissive: true})
					if perr != nil && !typedCrashError(perr) {
						t.Errorf("permissive %v load after crash: untyped error %v", rep, perr)
					}
					if perr == nil && pg.NumVertices() == 0 && oldN > 0 {
						t.Errorf("permissive %v load after crash returned an empty graph", rep)
					}
				}

				// Recovery: repair the litter, re-run the save, and the
				// directory must be clean and hold the new graph.
				if _, err := RepairDir(dir); err != nil {
					t.Fatalf("repair after crash: %v", err)
				}
				if err := SaveGraph(dir, newG, SaveOptions{ChunkRows: 8}); err != nil {
					t.Fatalf("re-save after repair: %v", err)
				}
				rep, err := VerifyDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean {
					t.Errorf("directory not clean after repair + re-save:\n%s", rep)
				}
				g, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
				if err != nil || g.NumVertices() != newN {
					t.Errorf("load after recovery: %v vertices, err %v; want %d", g, err, newN)
				}
			})
		}
	}
}

// truncOffsets returns every interesting truncation point of a PGC/PGN
// file: byte 0, the end of the magic, every chunk boundary, the footer
// region, and the final byte.
func truncOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := info.Size()
	offs := []int64{0, int64(len(magic)), size - 16, size - 1}
	r, err := openHeads(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range r.footer.Chunks {
		offs = append(offs, h.Offset+int64(h.Length))
	}
	seen := map[int64]bool{}
	var out []int64
	for _, o := range offs {
		if o >= 0 && o < size && !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// TestCrashTruncateChunkBoundaries simulates a torn write of every
// committed file at every chunk boundary (and the other interesting
// offsets): the manifest size check must turn each one into a typed
// error under strict loads, and Permissive loads must fail typed or
// succeed — never panic.
func TestCrashTruncateChunkBoundaries(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	g := core.NewVE(ctx, sampleVertices(96), sampleEdges(48))
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 16}); err != nil {
		t.Fatal(err)
	}
	repFor := map[string]core.Representation{
		FlatVerticesFile:   core.RepVE,
		FlatEdgesFile:      core.RepVE,
		NestedVerticesFile: core.RepOG,
		NestedEdgesFile:    core.RepOG,
	}
	for _, name := range layoutFiles {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range truncOffsets(t, path) {
			t.Run(fmt.Sprintf("%s@%d", name, off), func(t *testing.T) {
				if err := os.WriteFile(path, orig[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := os.WriteFile(path, orig, 0o644); err != nil {
						t.Fatal(err)
					}
				}()
				_, _, lerr := Load(ctx, dir, LoadOptions{Rep: repFor[name]})
				if !errors.Is(lerr, ErrManifestMismatch) {
					t.Errorf("strict load of %s truncated at %d: err = %v, want ErrManifestMismatch", name, off, lerr)
				}
				pg, _, perr := Load(ctx, dir, LoadOptions{Rep: repFor[name], Permissive: true})
				if perr != nil && !typedCrashError(perr) {
					t.Errorf("permissive load of %s truncated at %d: untyped error %v", name, off, perr)
				}
				if perr == nil && pg == nil {
					t.Errorf("permissive load of %s truncated at %d returned no graph and no error", name, off)
				}
				// The untouched representation still loads the committed data.
				other := core.RepOG
				if repFor[name] == core.RepOG {
					other = core.RepVE
				}
				og, _, oerr := Load(ctx, dir, LoadOptions{Rep: other})
				if oerr != nil {
					t.Errorf("load of intact %v files with %s truncated: %v", other, name, oerr)
				} else if og.NumVertices() != g.NumVertices() {
					t.Errorf("intact %v load returned %d vertices, want %d", other, og.NumVertices(), g.NumVertices())
				}
			})
		}
	}
}

// TestCrashTornManifestRecovery: a save that crashed while writing the
// MANIFEST itself (torn commit record) is an incomplete save; the data
// files are individually intact, so Permissive mode recovers everything.
func TestCrashTornManifestRecovery(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	g := core.NewVE(ctx, sampleVertices(50), sampleEdges(25))
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 16}); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestFile)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepOG}); !errors.Is(err, ErrIncompleteSave) {
		t.Fatalf("strict load with torn manifest: err = %v, want ErrIncompleteSave", err)
	}
	for _, rep := range []core.Representation{core.RepVE, core.RepOG} {
		pg, stats, err := Load(ctx, dir, LoadOptions{Rep: rep, Permissive: true})
		if err != nil {
			t.Fatalf("permissive %v recovery: %v", rep, err)
		}
		if pg.NumVertices() != g.NumVertices() || stats.ChunksCorrupt != 0 {
			t.Errorf("permissive %v recovery: %d vertices (want %d), stats %+v",
				rep, pg.NumVertices(), g.NumVertices(), stats)
		}
	}
}
