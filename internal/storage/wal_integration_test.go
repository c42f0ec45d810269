package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/faults"
	"repro/internal/props"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// appendSample appends n vertex deltas (IDs 10000+i) and n edge deltas
// (IDs 20000+i) to dir's WAL and returns the log's tail sequence.
func appendSample(t *testing.T, dir string, n int) uint64 {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < n; i++ {
		s := temporal.Time(60 + i)
		last, err = l.Append(
			wal.Delta{Kind: wal.KindVertex, ID: int64(10000 + i),
				Interval: temporal.Interval{Start: s, End: s + 5},
				Props:    props.New("type", "node", "live", true)},
			wal.Delta{Kind: wal.KindEdge, ID: int64(20000 + i), Src: int64(10000 + i), Dst: 0,
				Interval: temporal.Interval{Start: s, End: s + 2},
				Props:    props.New("type", "link")},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return last
}

// stateKey is a canonical identity for one flat state, used to compare
// graph contents across representations and across compaction.
func stateKey(kind string, id, src, dst int64, iv temporal.Interval) string {
	return fmt.Sprintf("%s/%d/%d/%d/%d-%d", kind, id, src, dst, iv.Start, iv.End)
}

func flatKeys(g core.TGraph) []string {
	var keys []string
	for _, v := range g.VertexStates() {
		keys = append(keys, stateKey("v", int64(v.ID), 0, 0, v.Interval))
	}
	for _, e := range g.EdgeStates() {
		keys = append(keys, stateKey("e", int64(e.ID), int64(e.Src), int64(e.Dst), e.Interval))
	}
	sort.Strings(keys)
	return keys
}

// Every representation observes the WAL tail: a load after acked
// appends sees exactly the committed files plus the appended states,
// and all four representations agree on the resulting state set.
func TestLoadReplaysWALAcrossReps(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	saveSample(t, dir, 40)
	appendSample(t, dir, 7)

	base, stats, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALReplayed != 14 {
		t.Errorf("WALReplayed = %d, want 14", stats.WALReplayed)
	}
	want := flatKeys(base)
	found := 0
	for _, k := range want {
		if strings.HasPrefix(k, "v/10005/") || strings.HasPrefix(k, "e/20005/") {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("replayed states missing from VE load: %v", want[len(want)-6:])
	}

	// OG flattens back to the identical state set; RG and OGC transform
	// states (region grouping, property dropping) so compare entity
	// counts and check the appended entities arrived.
	g, ostats, err := Load(ctx, dir, LoadOptions{Rep: core.RepOG})
	if err != nil {
		t.Fatal(err)
	}
	if ostats.WALReplayed != 14 {
		t.Errorf("OG: WALReplayed = %d, want 14", ostats.WALReplayed)
	}
	if got := flatKeys(g); !equalStrings(got, want) {
		t.Errorf("OG state set diverges from VE after replay (%d vs %d states)", len(got), len(want))
	}
	for _, rep := range []core.Representation{core.RepRG, core.RepOGC} {
		g, stats, err := Load(ctx, dir, LoadOptions{Rep: rep})
		if err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		if stats.WALReplayed != 14 {
			t.Errorf("%v: WALReplayed = %d, want 14", rep, stats.WALReplayed)
		}
		if g.NumVertices() != base.NumVertices() || g.NumEdges() != base.NumEdges() {
			t.Errorf("%v entity counts diverge: %d/%d vs %d/%d",
				rep, g.NumVertices(), g.NumEdges(), base.NumVertices(), base.NumEdges())
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Load clips replayed WAL records to the requested range exactly like
// it clips chunk rows.
func TestLoadClipsWALToRange(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	saveSample(t, dir, 20)
	appendSample(t, dir, 5) // appended states start at t=60

	g, stats, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE, Range: temporal.MustInterval(0, 55)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALReplayed != 0 {
		t.Errorf("WALReplayed = %d for a range excluding every appended state", stats.WALReplayed)
	}
	for _, v := range g.VertexStates() {
		if v.ID >= 10000 {
			t.Fatalf("state %v outside the range survived the clip", v)
		}
	}
	g, stats, err = Load(ctx, dir, LoadOptions{Rep: core.RepVE, Range: temporal.MustInterval(60, 62)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALReplayed == 0 {
		t.Error("no WAL records replayed for an overlapping range")
	}
	for _, v := range g.VertexStates() {
		if v.Interval.End > 62 {
			t.Fatalf("replayed state %v not clipped to the range", v)
		}
	}
}

// Compact folds the tail into a new epoch without changing what the
// data says: the state set before and after is identical, the manifest
// subsumes the folded sequence, the segments are retired, and a second
// compaction is a no-op.
func TestCompactFoldsTailAndIsIdempotent(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	saveSample(t, dir, 30)
	last := appendSample(t, dir, 6)

	before, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compact(ctx, dir, nil, SaveOptions{ChunkRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 12 || res.WALSeq != last {
		t.Errorf("compact folded %d to seq %d, want 12 to %d", res.Folded, res.WALSeq, last)
	}
	man, err := ReadManifest(dir)
	if err != nil || man == nil || man.WALSeq != last {
		t.Fatalf("manifest after compact: %+v, %v (want WALSeq %d)", man, err, last)
	}
	after, stats, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALReplayed != 0 {
		t.Errorf("load after compact replayed %d records, want 0", stats.WALReplayed)
	}
	if !equalStrings(flatKeys(before), flatKeys(after)) {
		t.Error("compaction changed the state set")
	}

	res2, err := Compact(ctx, dir, nil, SaveOptions{ChunkRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Folded != 0 {
		t.Errorf("second compact folded %d records, want 0", res2.Folded)
	}
	// Appends after compaction land past the subsumption point and
	// replay on top of the new epoch.
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.Delta{Kind: wal.KindVertex, ID: 99999,
		Interval: temporal.MustInterval(0, 1)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	g, stats, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALReplayed != 1 {
		t.Errorf("post-compact append replayed %d times, want 1", stats.WALReplayed)
	}
	n := 0
	for _, v := range g.VertexStates() {
		if v.ID == 99999 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("post-compact append appears %d times, want 1", n)
	}
}

// A flat-only compaction removes the old epoch's nested files once its
// MANIFEST commits, and a load of OG or OGC then fails with the typed
// ErrLayoutNotStored, strict or Permissive, instead of reading files
// that miss the folded records. An offline compaction with default
// options writes the layout again.
func TestLayoutNotStoredIsTyped(t *testing.T) {
	ctx := testCtx()
	dir := t.TempDir()
	saveSample(t, dir, 30)
	appendSample(t, dir, 4)
	if _, err := Compact(ctx, dir, nil, SaveOptions{ChunkRows: 32, SkipNested: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{NestedVerticesFile, NestedEdgesFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s after a flat-only compaction: stat err = %v, want not-exist", name, err)
		}
	}
	ve, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []core.Representation{core.RepOG, core.RepOGC} {
		for _, permissive := range []bool{false, true} {
			_, _, err := Load(ctx, dir, LoadOptions{Rep: rep, Permissive: permissive})
			if !errors.Is(err, ErrLayoutNotStored) {
				t.Fatalf("%v load (permissive=%v): err = %v, want ErrLayoutNotStored", rep, permissive, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "nested") || !strings.Contains(msg, "tgraph-cli -compact") {
				t.Errorf("error %q names neither the layout nor the fix", msg)
			}
		}
	}
	if _, err := Compact(ctx, dir, nil, SaveOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	og, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepOG})
	if err != nil {
		t.Fatalf("OG load after a full compaction: %v", err)
	}
	if !equalStrings(flatKeys(og), flatKeys(ve)) {
		t.Error("the restored nested layout differs from the flat one")
	}
}

// The compaction crash matrix: a crash at the compact entry site or at
// any write site inside the SaveGraph commit window leaves a directory
// that — after RepairDir — loads every acked record exactly once. A
// flat-only compaction runs the matrix too, plus its removal site: a
// crash after its MANIFEST commit leaves the old nested files as
// orphans, which VerifyDir reports and RepairDir removes, and the
// nested layout then reads as not stored.
func TestCrashCompactMatrix(t *testing.T) {
	sites := []string{
		"storage.wal.compact",
		"storage.write.create", "storage.write.short",
		"storage.write.sync", "storage.write.rename",
		"storage.write.remove",
	}
	ctx := testCtx()
	for _, flatOnly := range []bool{false, true} {
		for _, site := range sites {
			for every := 1; every <= 3; every++ {
				name := fmt.Sprintf("%s/every=%d", site, every)
				if flatOnly {
					name = "flat-only/" + name
				}
				t.Run(name, func(t *testing.T) {
					crashCompact(t, ctx, site, every, flatOnly)
				})
			}
		}
	}
}

func crashCompact(t *testing.T, ctx *dataflow.Context, site string, every int, flatOnly bool) {
	dir := t.TempDir()
	saveSample(t, dir, 20)
	appendSample(t, dir, 4)
	want := func() []string {
		g, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
		if err != nil {
			t.Fatal(err)
		}
		return flatKeys(g)
	}()

	inj := faults.New(7+int64(every), faults.Rule{Site: site, Kind: faults.Crash, Every: every})
	_, err := Compact(ctx, dir, nil, SaveOptions{ChunkRows: 32, SkipNested: flatOnly, FaultHook: inj.WriteHook()})
	if err == nil {
		// The rule never fired inside this compaction (cadence skipped
		// every site, or a full compaction removes nothing); nothing to
		// recover.
		return
	}
	if !isCrash(err) && !wal.IsCrash(err) {
		t.Fatalf("compact failed with a non-crash error: %v", err)
	}
	if site == "storage.write.remove" {
		rep, err := VerifyDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		orphans := 0
		for _, f := range rep.Files {
			if f.Status == "orphan" {
				orphans++
			}
		}
		if orphans == 0 || rep.Clean {
			t.Errorf("crash before a removal: VerifyDir reports %d orphans (clean=%v), want at least 1", orphans, rep.Clean)
		}
	}

	if _, err := RepairDir(dir); err != nil {
		t.Fatalf("repair after crash: %v", err)
	}
	// No silent loss: every pre-crash state survives. A strict load
	// succeeding means the commit never started or fully finished — then
	// the state set must match exactly. A crash inside the commit window
	// forces a degraded (Permissive) load, which reads
	// renamed-but-uncommitted files best-effort and may observe a folded
	// record twice — diagnosed, never lost.
	g, _, strictErr := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if strictErr != nil {
		g, _, err = Load(ctx, dir, LoadOptions{Rep: core.RepVE, Permissive: true})
		if err != nil {
			t.Fatalf("load after crash+repair: %v", err)
		}
	}
	got := make(map[string]bool)
	for _, k := range flatKeys(g) {
		got[k] = true
	}
	for _, k := range want {
		if !got[k] {
			t.Errorf("crash at %s lost acked state %s", site, k)
		}
	}
	if strictErr == nil && len(got) != len(want) {
		t.Errorf("clean recovery at %s changed the state set: %d states, want %d",
			site, len(got), len(want))
	}
	if site == "storage.write.remove" {
		if strictErr != nil {
			t.Errorf("strict VE load after a crash past the commit: %v", strictErr)
		}
		for _, name := range []string{NestedVerticesFile, NestedEdgesFile} {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Errorf("repair left the orphan %s (stat err = %v)", name, err)
			}
		}
		if _, _, err := Load(ctx, dir, LoadOptions{Rep: core.RepOG, Permissive: true}); !errors.Is(err, ErrLayoutNotStored) {
			t.Errorf("OG load after a crash past the commit: err = %v, want ErrLayoutNotStored", err)
		}
	}
}

// Stamp tracks acked appends (the +wal suffix) while BaseStamp stays
// put; compaction folds the suffix into a new base.
func TestStampTracksWALTail(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 20)
	base0, err := BaseStamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s0 != base0 {
		t.Errorf("stamp %q != base %q with no WAL", s0, base0)
	}

	appendSample(t, dir, 2)
	base1, _ := BaseStamp(dir)
	s1, err := Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if base1 != base0 {
		t.Errorf("append moved the base stamp: %q -> %q", base0, base1)
	}
	if s1 == s0 || !strings.Contains(s1, "+wal:") {
		t.Errorf("append did not move the stamp: %q -> %q", s0, s1)
	}

	if _, err := Compact(testCtx(), dir, nil, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	s2, err := Stamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	base2, _ := BaseStamp(dir)
	if s2 != base2 || strings.Contains(s2, "+wal:") {
		t.Errorf("compaction left a wal suffix: %q (base %q)", s2, base2)
	}
	if base2 == base0 {
		t.Error("compaction did not move the base stamp")
	}
}

// VerifyDir reports WAL damage and unexpected litter; RepairDir heals
// the WAL (truncating torn tails), retires subsumed segments and
// quarantines litter without deleting it.
func TestVerifyAndRepairWALAndLitter(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 20)
	appendSample(t, dir, 3)

	// Tear the active segment's tail and drop a stray file.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Fatalf("verify reported a damaged dir clean:\n%s", rep)
	}
	var sawTorn, sawUnexpected bool
	for _, f := range rep.Files {
		if f.Status == "torn-tail" {
			sawTorn = true
		}
		if f.Status == "unexpected" && f.Name == "notes.txt" {
			sawUnexpected = true
		}
	}
	if !sawTorn || !sawUnexpected {
		t.Fatalf("verify missed damage (torn=%v unexpected=%v):\n%s", sawTorn, sawUnexpected, rep)
	}

	fixed, err := RepairDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) == 0 {
		t.Fatal("repair fixed nothing")
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "notes.txt")); err != nil {
		t.Errorf("stray file not quarantined: %v (repair said %v)", err, fixed)
	}
	rep, err = VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Errorf("dir still damaged after repair:\n%s", rep)
	}
	// The surviving records (all but the torn one) still load.
	g, stats, err := Load(testCtx(), dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALReplayed == 0 || g.NumVertices() == 0 {
		t.Errorf("post-repair load replayed %d records", stats.WALReplayed)
	}
}

// RepairDir retires WAL segments the manifest already subsumes, e.g.
// after a crash between compaction's commit and its retirement step.
func TestRepairRetiresSubsumedSegments(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 20)
	last := appendSample(t, dir, 3)

	// Simulate the post-commit crash: manifest subsumes the tail but the
	// segments were never retired.
	g, _, err := Load(testCtx(), dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveGraph(dir, g, SaveOptions{WALSeq: last}); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("precondition: no segments to retire")
	}
	if _, err := RepairDir(dir); err != nil {
		t.Fatal(err)
	}
	segs, _ = filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, s := range segs {
		info, err := os.Stat(s)
		if err == nil && info.Size() > 13+8 {
			t.Errorf("subsumed segment %s with records survived repair", filepath.Base(s))
		}
	}
	stats := func() ScanStats {
		_, st, err := Load(testCtx(), dir, LoadOptions{Rep: core.RepVE})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	if stats.WALReplayed != 0 {
		t.Errorf("subsumed records replayed %d times after repair", stats.WALReplayed)
	}
}

// Strict loads refuse mid-log WAL corruption with ErrCorrupt;
// Permissive loads skip it and count it in the stats.
func TestLoadWALCorruptionModes(t *testing.T) {
	dir := t.TempDir()
	saveSample(t, dir, 20)
	appendSample(t, dir, 4)

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record's payload: bad CRC with valid
	// records after it — mid-log corruption, not a torn tail.
	data[13+8+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Load(testCtx(), dir, LoadOptions{Rep: core.RepVE})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("strict load of corrupt WAL: %v, want ErrCorrupt", err)
	}
	g, stats, err := Load(testCtx(), dir, LoadOptions{Rep: core.RepVE, Permissive: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALSkipped == 0 {
		t.Error("permissive load skipped nothing over corrupt WAL")
	}
	if stats.WALReplayed == 0 || g.NumVertices() == 0 {
		t.Error("permissive load dropped the surviving records")
	}
}
