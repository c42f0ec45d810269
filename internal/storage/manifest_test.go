package storage

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func saveSample(t *testing.T, dir string, n int) core.TGraph {
	t.Helper()
	g := core.NewVE(testCtx(), sampleVertices(n), sampleEdges(n/2))
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	return g
}

// SaveGraph commits a manifest whose entries match the bytes on disk
// exactly: name, size, whole-file CRC, row counts and sort order.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 200)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil {
		t.Fatal("SaveGraph wrote no manifest")
	}
	if man.Epoch != FormatEpoch {
		t.Errorf("epoch = %d, want %d", man.Epoch, FormatEpoch)
	}
	if len(man.Entries) != 4 {
		t.Fatalf("manifest lists %d files, want 4: %+v", len(man.Entries), man.Entries)
	}
	for _, ent := range man.Entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name))
		if err != nil {
			t.Fatalf("%s committed but unreadable: %v", ent.Name, err)
		}
		if int64(len(data)) != ent.Size {
			t.Errorf("%s: size %d on disk, %d in manifest", ent.Name, len(data), ent.Size)
		}
		if crc32.ChecksumIEEE(data) != ent.CRC {
			t.Errorf("%s: CRC mismatch between disk and manifest", ent.Name)
		}
	}
	if ent := man.Entry(FlatVerticesFile); ent == nil || ent.Rows != 200 || ent.SortOrder != "temporal" {
		t.Errorf("vertices entry = %+v, want 200 temporal rows", ent)
	}
	if ent := man.Entry(FlatEdgesFile); ent == nil || ent.Rows != 100 {
		t.Errorf("edges entry = %+v, want 100 rows", ent)
	}
}

// Each successful save advances the directory's SaveEpoch, and Stamp
// tracks it: re-saving (even identical content) changes the stamp,
// while two reads without an intervening save agree.
func TestSaveEpochAdvancesAndStampTracksIt(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 100)
	man, err := ReadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("ReadManifest: %v, %v", man, err)
	}
	if man.SaveEpoch != 1 {
		t.Errorf("first save epoch = %d, want 1", man.SaveEpoch)
	}
	s1, err := Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1Again, err := Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s1Again {
		t.Errorf("stamp not stable without a save: %q vs %q", s1, s1Again)
	}
	saveSample(t, dir, 100) // identical content, new save
	man, err = ReadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("ReadManifest after re-save: %v, %v", man, err)
	}
	if man.SaveEpoch != 2 {
		t.Errorf("second save epoch = %d, want 2", man.SaveEpoch)
	}
	s2, err := Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 {
		t.Errorf("stamp unchanged across a save: %q", s2)
	}
	saveSample(t, dir, 150) // different content
	s3, err := Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s2 || s3 == s1 {
		t.Errorf("stamp unchanged across a content change: %q", s3)
	}
}

// Stamp still yields an identity for manifest-less legacy directories,
// and propagates the error for torn manifests instead of handing the
// cache a stale identity.
func TestStampLegacyAndTorn(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 50)
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	s, err := Stamp(dir)
	if err != nil {
		t.Fatalf("legacy stamp: %v", err)
	}
	if s == "" || s == "legacy" {
		t.Errorf("legacy stamp carries no file identity: %q", s)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Stamp(dir); !errors.Is(err, ErrIncompleteSave) {
		t.Errorf("torn manifest stamp err = %v, want ErrIncompleteSave", err)
	}
}

// A directory without a manifest (legacy layout or crashed save) is
// refused by strict loads with ErrIncompleteSave and read best-effort
// by Permissive ones.
func TestLoadLegacyManifestlessDir(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	saveSample(t, dir, 100)
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if !errors.Is(err, ErrIncompleteSave) {
		t.Fatalf("strict load of manifest-less dir: err = %v, want ErrIncompleteSave", err)
	}
	for _, rep := range []core.Representation{core.RepVE, core.RepOG} {
		g, stats, err := Load(ctx, dir, LoadOptions{Rep: rep, Permissive: true})
		if err != nil {
			t.Fatalf("permissive legacy load (%v): %v", rep, err)
		}
		if g.NumVertices() == 0 || stats.ChunksCorrupt != 0 {
			t.Errorf("permissive legacy load (%v): vertices=%d stats=%+v", rep, g.NumVertices(), stats)
		}
	}
}

// A torn manifest is an incomplete save; Permissive loads proceed and
// count the recovery.
func TestLoadTornManifest(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	saveSample(t, dir, 100)
	mpath := filepath.Join(dir, ManifestFile)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrIncompleteSave) {
		t.Fatalf("ReadManifest of torn manifest: %v, want ErrIncompleteSave", err)
	}
	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE}); !errors.Is(err, ErrIncompleteSave) {
		t.Fatalf("strict load: err = %v, want ErrIncompleteSave", err)
	}
	mismBefore, recBefore := obsManifestMismatches.Value(), obsRecoveredSaves.Value()
	g, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Permissive: true})
	if err != nil {
		t.Fatalf("permissive load past torn manifest: %v", err)
	}
	if g.NumVertices() == 0 {
		t.Error("permissive load returned no data")
	}
	if d := obsManifestMismatches.Value() - mismBefore; d != 1 {
		t.Errorf("storage.manifest_mismatches delta = %d, want 1", d)
	}
	if d := obsRecoveredSaves.Value() - recBefore; d != 1 {
		t.Errorf("storage.recovered_saves delta = %d, want 1", d)
	}
}

// A manifest that disagrees with a file's size is a mismatch — but only
// for representations that read the damaged file.
func TestLoadManifestMismatch(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	saveSample(t, dir, 100)
	epath := filepath.Join(dir, FlatEdgesFile)
	data, err := os.ReadFile(epath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(epath, append(data, 0xAA), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE}); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("strict VE load: err = %v, want ErrManifestMismatch", err)
	}
	// The nested files are untouched; OG loads cleanly.
	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepOG}); err != nil {
		t.Fatalf("OG load with intact nested files: %v", err)
	}
	// Permissive proceeds best-effort — but the appended byte destroys
	// the PGC trailer, so the degraded load still fails, with the typed
	// error rather than a raw parse failure.
	_, _, err = Load(ctx, dir, LoadOptions{Rep: core.RepVE, Permissive: true})
	if !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("degraded permissive load of torn file: err = %v, want ErrManifestMismatch wrap", err)
	}
}

// A manifest from a future format epoch is refused rather than misread.
func TestLoadFutureEpoch(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 20)
	man, err := ReadManifest(dir)
	if err != nil || man == nil {
		t.Fatal(err)
	}
	// Re-marshal with a bumped epoch; the entries (and so the CRC) are
	// unchanged, isolating the epoch check.
	man.Epoch = FormatEpoch + 1
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("future-epoch manifest: err = %v, want ErrManifestMismatch", err)
	}
}

// The satellite case: a write error partway through SaveGraph removes
// every already-staged temp file and leaves the previous committed
// directory fully loadable.
func TestSaveGraphCleansUpOnPartialFailure(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	old := saveSample(t, dir, 60)
	// Make staging the edges file fail with a REAL error (not a
	// simulated crash): its temp name is occupied by a directory.
	blocker := filepath.Join(dir, FlatEdgesFile+tmpSuffix)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	next := core.NewVE(ctx, sampleVertices(200), sampleEdges(100))
	err := SaveGraph(dir, next, SaveOptions{ChunkRows: 32})
	if err == nil {
		t.Fatal("SaveGraph with blocked temp file: want error")
	}
	if isCrash(err) {
		t.Fatalf("real I/O error misclassified as crash: %v", err)
	}
	// The vertices temp staged before the failure must be gone.
	if _, serr := os.Stat(filepath.Join(dir, FlatVerticesFile+tmpSuffix)); !os.IsNotExist(serr) {
		t.Errorf("aborted save leaked %s%s", FlatVerticesFile, tmpSuffix)
	}
	os.Remove(blocker)
	g, _, lerr := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if lerr != nil {
		t.Fatalf("old directory unloadable after aborted save: %v", lerr)
	}
	if g.NumVertices() != old.NumVertices() {
		t.Errorf("old data changed: %d vertices, want %d", g.NumVertices(), old.NumVertices())
	}
}

// VerifyDir: a committed directory is clean; chunk corruption, litter
// and missing files are each reported.
func TestVerifyDir(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 200)
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.ManifestStatus != "ok" || len(rep.Files) != 4 {
		t.Fatalf("clean dir reported %+v", rep)
	}
	for _, f := range rep.Files {
		if f.Status != "ok" || f.Chunks == 0 || len(f.BadChunks) != 0 {
			t.Errorf("clean file reported %+v", f)
		}
	}

	// Flip one byte of the flat vertices file in place: the size still
	// matches the manifest, so only the whole-file CRC catches it.
	corruptChunk(t, filepath.Join(dir, FlatVerticesFile), 1)
	if err := os.WriteFile(filepath.Join(dir, "edges.pgc.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Fatal("damaged dir reported clean")
	}
	var vf *FileReport
	for i := range rep.Files {
		if rep.Files[i].Name == FlatVerticesFile {
			vf = &rep.Files[i]
		}
	}
	if vf == nil || vf.Status != "crc-mismatch" {
		t.Errorf("corrupt vertices file reported %+v, want crc-mismatch", vf)
	}
	if len(rep.TmpFiles) != 1 || rep.TmpFiles[0] != "edges.pgc.tmp" {
		t.Errorf("tmp litter reported %v", rep.TmpFiles)
	}

	// A missing committed file.
	os.Remove(filepath.Join(dir, NestedEdgesFile))
	rep, _ = VerifyDir(dir)
	found := false
	for _, f := range rep.Files {
		if f.Name == NestedEdgesFile && f.Status == "missing" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing file not reported: %+v", rep.Files)
	}
}

// RepairDir removes aborted-save litter — stale temps and uncommitted
// orphans — and leaves committed data alone.
func TestRepairDir(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	g := core.NewVE(ctx, sampleVertices(80), nil)
	if err := SaveGraph(dir, g, SaveOptions{ChunkRows: 32, SkipNested: true}); err != nil {
		t.Fatal(err)
	}
	// Litter: a stale temp and an orphan nested file never committed.
	if err := os.WriteFile(filepath.Join(dir, FlatVerticesFile+tmpSuffix), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteNestedVertices(filepath.Join(dir, NestedVerticesFile), nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	recBefore := obsRecoveredSaves.Value()
	removed, err := RepairDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{FlatVerticesFile + tmpSuffix: true, NestedVerticesFile: true}
	if len(removed) != len(want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	for _, name := range removed {
		if !want[name] {
			t.Errorf("repair removed unexpected file %s", name)
		}
	}
	if d := obsRecoveredSaves.Value() - recBefore; d != 1 {
		t.Errorf("storage.recovered_saves delta = %d, want 1", d)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Errorf("dir not clean after repair: %+v", rep)
	}
	if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE}); err != nil {
		t.Errorf("committed data unloadable after repair: %v", err)
	}
	// Idempotent: nothing left to remove.
	removed, err = RepairDir(dir)
	if err != nil || len(removed) != 0 {
		t.Errorf("second repair removed %v (err %v)", removed, err)
	}
}
