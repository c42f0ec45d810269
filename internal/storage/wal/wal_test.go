package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/temporal"
)

func vd(id int64, start, end temporal.Time, kv ...any) Delta {
	return Delta{Kind: KindVertex, ID: id,
		Interval: temporal.Interval{Start: start, End: end}, Props: props.New(kv...)}
}

func ed(id, src, dst int64, start, end temporal.Time, kv ...any) Delta {
	return Delta{Kind: KindEdge, ID: id, Src: src, Dst: dst,
		Interval: temporal.Interval{Start: start, End: end}, Props: props.New(kv...)}
}

func deltasEqual(a, b Delta) bool {
	return a.Kind == b.Kind && a.ID == b.ID && a.Src == b.Src && a.Dst == b.Dst &&
		a.Interval == b.Interval && a.Props.Equal(b.Props)
}

// TestRecordRoundTrip covers every tuple shape by hand: vertex/edge,
// empty props, every value kind, interned-key edge cases (empty-ish
// and unicode names, many keys).
func TestRecordRoundTrip(t *testing.T) {
	cases := []Delta{
		vd(1, 0, 10),
		vd(-5, -100, 100, "name", props.StringVal("α β\x00γ")),
		vd(0, 0, 1, "b", props.Bool(true), "f", props.Float(3.5), "i", props.Int(-9), "n", props.Nil(), "s", props.StringVal("")),
		ed(7, 1, 2, 5, 6),
		ed(-1, -2, -3, -10, -9, "w", props.Float(0.25)),
	}
	// Many keys, forcing name-sorted inline encoding.
	many := props.Builder{}
	for i := 0; i < 40; i++ {
		many.Set(fmt.Sprintf("k%02d", 39-i), props.Int(int64(i)))
	}
	cases = append(cases, Delta{Kind: KindVertex, ID: 3,
		Interval: temporal.MustInterval(1, 2), Props: many.Build()})

	for i, d := range cases {
		seq := uint64(i + 1)
		frame := encodeRecord(nil, seq, d)
		plen := binary.LittleEndian.Uint32(frame[:4])
		if int(plen)+frameHeaderLen != len(frame) {
			t.Fatalf("case %d: frame length prefix %d, frame %d bytes", i, plen, len(frame))
		}
		gotSeq, got, err := decodePayload(frame[frameHeaderLen:])
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if gotSeq != seq || !deltasEqual(got, d) {
			t.Fatalf("case %d: round trip mismatch: got seq=%d %+v, want seq=%d %+v", i, gotSeq, got, seq, d)
		}
	}
}

// quickDelta builds a generator-friendly delta from primitive values.
func quickDelta(kind bool, id, src, dst int64, start, end int64, names []string, kinds []uint8, nums []int64, strs []string) Delta {
	d := Delta{Kind: KindVertex, ID: id}
	if kind {
		d.Kind, d.Src, d.Dst = KindEdge, src, dst
	}
	d.Interval = temporal.Interval{Start: temporal.Time(start), End: temporal.Time(end)}
	var b props.Builder
	for i, name := range names {
		if name == "" {
			continue // empty key names are rejected by the interner
		}
		var v props.Value
		switch kinds[i%max(1, len(kinds))] % 5 {
		case 0:
			v = props.Nil()
		case 1:
			v = props.Bool(nums[i%max(1, len(nums))]%2 == 0)
		case 2:
			v = props.Int(nums[i%max(1, len(nums))])
		case 3:
			v = props.Float(float64(nums[i%max(1, len(nums))]) / 7)
		case 4:
			v = props.StringVal(strs[i%max(1, len(strs))])
		}
		b.Set(name, v)
	}
	d.Props = b.Build()
	return d
}

// TestRecordRoundTripQuick is the testing/quick property: every
// generatable delta survives encode → frame-verify → decode
// byte-exactly.
func TestRecordRoundTripQuick(t *testing.T) {
	f := func(kind bool, id, src, dst, start, end int64, seq uint64, names []string, kinds []uint8, nums []int64, strs []string) bool {
		if len(kinds) == 0 {
			kinds = []uint8{0}
		}
		if len(nums) == 0 {
			nums = []int64{0}
		}
		if len(strs) == 0 {
			strs = []string{""}
		}
		d := quickDelta(kind, id, src, dst, start, end, names, kinds, nums, strs)
		frame := encodeRecord(nil, seq, d)
		payload := frame[frameHeaderLen:]
		gotSeq, got, err := decodePayload(payload)
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return gotSeq == seq && deltasEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTupleConversions proves the Delta <-> core tuple adapters are
// lossless and kind-checked.
func TestTupleConversions(t *testing.T) {
	vt := core.VertexTuple{ID: 4, Interval: temporal.MustInterval(1, 9), Props: props.New("a", props.Int(1))}
	d := VertexDelta(vt)
	back, ok := d.VertexTuple()
	if !ok || back.ID != vt.ID || back.Interval != vt.Interval || !back.Props.Equal(vt.Props) {
		t.Fatalf("vertex round trip: %+v", back)
	}
	if _, ok := d.EdgeTuple(); ok {
		t.Fatal("vertex delta converted to edge tuple")
	}
	et := core.EdgeTuple{ID: 9, Src: 1, Dst: 2, Interval: temporal.MustInterval(2, 3)}
	de := EdgeDelta(et)
	backE, ok := de.EdgeTuple()
	if !ok || backE.ID != et.ID || backE.Src != et.Src || backE.Dst != et.Dst ||
		backE.Interval != et.Interval || !backE.Props.Equal(et.Props) {
		t.Fatalf("edge round trip: %+v", backE)
	}
	if _, ok := de.VertexTuple(); ok {
		t.Fatal("edge delta converted to vertex tuple")
	}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

// TestAppendReopenReplay is the basic durability loop: append, close,
// reopen, read everything back in order.
func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if rec.LastSeq != 0 || rec.Segments != 0 {
		t.Fatalf("fresh dir recovery: %+v", rec)
	}
	want := []Delta{
		vd(1, 0, 5, "name", props.StringVal("a")),
		ed(1, 1, 2, 2, 4),
		vd(2, 3, 9, "x", props.Int(7)),
	}
	seq, err := l.Append(want[0], want[1])
	if err != nil || seq != 2 {
		t.Fatalf("append: seq=%d err=%v", seq, err)
	}
	seq, err = l.Append(want[2])
	if err != nil || seq != 3 {
		t.Fatalf("append: seq=%d err=%v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec2.LastSeq != 3 || rec2.Records != 3 || rec2.TruncatedBytes != 0 {
		t.Fatalf("reopen recovery: %+v", rec2)
	}
	res, err := Read(dir, 0, false)
	got, last := res.Deltas, res.LastSeq
	if err != nil || last != 3 {
		t.Fatalf("read: last=%d err=%v", last, err)
	}
	if len(got) != len(want) {
		t.Fatalf("read: %d deltas, want %d", len(got), len(want))
	}
	for i := range want {
		if !deltasEqual(got[i], want[i]) {
			t.Fatalf("delta %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// A floor skips the prefix.
	tail, err := Read(dir, 2, false)
	if err != nil || len(tail.Deltas) != 1 || !deltasEqual(tail.Deltas[0], want[2]) {
		t.Fatalf("read after 2: %v %v", tail.Deltas, err)
	}
}

// TestAppendRefusesOversizeRecord: a delta whose record would exceed
// maxRecordLen is refused with the whole batch before a byte is written
// — recovery would read such a length as a torn tail and truncate an
// acked record — and the log goes on appending after it.
func TestAppendRefusesOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, err := l.Append(vd(1, 0, 5)); err != nil {
		t.Fatal(err)
	}
	huge := vd(2, 0, 5, "blob", props.StringVal(strings.Repeat("x", maxRecordLen+1)))
	if seq, err := l.Append(vd(3, 0, 5), huge); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize append: seq=%d err=%v, want ErrRecordTooLarge", seq, err)
	}
	if got := l.LastSeq(); got != 1 {
		t.Fatalf("LastSeq after refused batch = %d, want 1", got)
	}
	if seq, err := l.Append(vd(4, 0, 5)); err != nil || seq != 2 {
		t.Fatalf("append after refused batch: seq=%d err=%v, want 2", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.LastSeq != 2 || rec.Records != 2 || rec.TruncatedBytes != 0 {
		t.Fatalf("reopen recovery: %+v, want 2 records and nothing truncated", rec)
	}
}

// TestRotationAndRetire drives rotation via a tiny segment budget,
// proves multi-segment replay, then retires subsumed segments.
func TestRotationAndRetire(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64})
	for i := 1; i <= 20; i++ {
		if _, err := l.Append(vd(int64(i), 0, temporal.Time(i))); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := listSegments(dir); len(segs) < 3 {
		t.Fatalf("expected rotations, got %d segment(s)", len(segs))
	}
	res, err := Read(dir, 0, false)
	if err != nil || res.LastSeq != 20 || len(res.Deltas) != 20 {
		t.Fatalf("read over segments: n=%d last=%d err=%v", len(res.Deltas), res.LastSeq, err)
	}

	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	removed, err := l.RetireThrough(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("retire removed nothing")
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Fatalf("after retire: %d segments, want 1 (active)", len(segs))
	}
	// Sequence numbering continues after retirement.
	seq, err := l.Append(vd(99, 0, 1))
	if err != nil || seq != 21 {
		t.Fatalf("append after retire: seq=%d err=%v", seq, err)
	}
	l.Close()

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.LastSeq != 21 || rec.Records != 1 {
		t.Fatalf("recovery after retire: %+v", rec)
	}
}

// TestBeforeRetireSeesEachSegment: RetireThrough calls BeforeRetire
// with every segment it deletes, while the segment is still there, and
// with no other path.
func TestBeforeRetireSeesEachSegment(t *testing.T) {
	dir := t.TempDir()
	var seen []string
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64, BeforeRetire: func(path string) {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("BeforeRetire(%s): segment already gone: %v", path, err)
		}
		seen = append(seen, path)
	}})
	defer l.Close()
	for i := 1; i <= 20; i++ {
		if _, err := l.Append(vd(int64(i), 0, temporal.Time(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	removed, err := l.RetireThrough(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || len(seen) != removed {
		t.Fatalf("retired %d segments, BeforeRetire saw %d", removed, len(seen))
	}
	for _, path := range seen {
		if !slices.Contains(before, path) {
			t.Errorf("BeforeRetire(%s): not a segment of the log", path)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s survived its retirement: %v", path, err)
		}
	}
}

// TestTornTailTruncatedAtEveryBoundary cuts the log at EVERY byte
// length between the last good record and the full file, reopening
// each time: recovery must always truncate back to the complete-record
// prefix, never error, never panic, and keep every earlier record.
func TestTornTailTruncatedAtEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, err := l.Append(vd(1, 0, 5, "k", props.StringVal("v"))); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ed(2, 1, 2, 3, 8, "w", props.Float(1.5))); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segs[0])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the boundary after record 1 by scanning.
	w, err := walkSegment(full, true, false, nil)
	if err != nil || w.records != 2 {
		t.Fatalf("walk: %+v %v", w, err)
	}
	rec1len := int(binary.LittleEndian.Uint32(full[segHeaderLen:segHeaderLen+4])) + frameHeaderLen
	boundary1 := segHeaderLen + rec1len

	for cut := boundary1 + 1; cut < len(full); cut++ {
		scratch := t.TempDir()
		p := filepath.Join(scratch, segs[0])
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(scratch, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if rec.LastSeq != 1 || rec.Records != 1 {
			t.Fatalf("cut=%d: recovered %+v, want last=1", cut, rec)
		}
		if rec.TruncatedBytes != int64(cut-boundary1) {
			t.Fatalf("cut=%d: truncated %d bytes, want %d", cut, rec.TruncatedBytes, cut-boundary1)
		}
		// The log must be appendable right where it recovered to.
		if seq, err := l2.Append(vd(9, 0, 1)); err != nil || seq != 2 {
			t.Fatalf("cut=%d: append after recovery: seq=%d err=%v", cut, seq, err)
		}
		l2.Close()
	}

	// Cutting inside the header (including an empty file) removes the
	// segment whole.
	for cut := 0; cut < segHeaderLen; cut++ {
		scratch := t.TempDir()
		p := filepath.Join(scratch, segs[0])
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec, err := Open(scratch, Options{})
		if err != nil {
			t.Fatalf("header cut=%d: open: %v", cut, err)
		}
		if len(rec.RemovedSegments) != 1 || rec.LastSeq != 0 {
			t.Fatalf("header cut=%d: recovery %+v, want segment removed", cut, rec)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("header cut=%d: torn segment still on disk", cut)
		}
	}
}

// corruptRecord flips a byte inside record idx's payload of the given
// segment bytes, returning the damaged copy.
func corruptRecord(t *testing.T, data []byte, idx int) []byte {
	t.Helper()
	off := segHeaderLen
	for i := 0; ; i++ {
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if i == idx {
			bad := bytes.Clone(data)
			bad[off+frameHeaderLen+plen/2] ^= 0xFF
			return bad
		}
		off += frameHeaderLen + plen
	}
}

// TestMidLogCorruption proves the torn-tail/mid-log distinction: a
// checksum-failing record with valid data after it is a hard typed
// error in strict mode and a skip-with-count in permissive mode — in
// both modes the damage is never silently returned as data.
func TestMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(vd(int64(i), 0, temporal.Time(i), "k", props.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, corruptRecord(t, data, 1), 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict: typed error.
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open: %v, want ErrCorrupt", err)
	}
	if _, err := Read(dir, 0, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict read: %v, want ErrCorrupt", err)
	}

	// Permissive: records 1 and 3 survive, 1 skip counted.
	res, err := Read(dir, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 || len(res.Deltas) != 2 {
		t.Fatalf("permissive read: %d deltas, %d skipped", len(res.Deltas), res.Skipped)
	}
	if res.Deltas[0].ID != 1 || res.Deltas[1].ID != 3 {
		t.Fatalf("permissive read kept wrong records: %+v", res.Deltas)
	}
	l2, rec, err := Open(dir, Options{Permissive: true})
	if err != nil {
		t.Fatalf("permissive open: %v", err)
	}
	defer l2.Close()
	if rec.SkippedRecords != 1 || rec.Records != 2 || rec.LastSeq != 3 {
		t.Fatalf("permissive recovery: %+v", rec)
	}
}

// TestUnknownSegmentVersion: a segment written by another format
// version is corruption to every reader, never an ok segment.
func TestUnknownSegmentVersion(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	l.Append(vd(1, 0, 1))
	l.Close()
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	data, _ := os.ReadFile(path)
	data[len(segMagic)] = segVersion + 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Permissive: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open: %v, want ErrCorrupt", err)
	}
	if _, err := Read(dir, 0, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read: %v, want ErrCorrupt", err)
	}
	infos, err := Inspect(dir)
	if err != nil || len(infos) != 1 || infos[0].Status != "corrupt-records" {
		t.Fatalf("inspect: %+v %v, want corrupt-records", infos, err)
	}
}

// TestSequenceGap fabricates a gap between two segments: strict mode
// refuses with ErrCorrupt, permissive counts and continues, and Open,
// Read and Inspect agree on what they found.
func TestSequenceGap(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	l.Append(vd(1, 0, 1))
	l.Rotate()
	l.Append(vd(2, 0, 2))
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %v", segs)
	}
	// Renumber the second segment's header so it claims to start at 5.
	path := filepath.Join(dir, segs[1])
	data, _ := os.ReadFile(path)
	bad := bytes.Clone(data)
	binary.LittleEndian.PutUint64(bad[len(segMagic)+1:segHeaderLen], 5)
	// And its record's seq must match the header or it reads as corrupt;
	// rewrite the record too.
	_, d, err := decodePayload(data[segHeaderLen+frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	bad = append(bad[:segHeaderLen], encodeRecord(nil, 5, d)...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open across gap: %v, want ErrCorrupt", err)
	}
	l2, rec, err := Open(dir, Options{Permissive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.LastSeq != 5 || rec.SkippedRecords == 0 {
		t.Fatalf("permissive gap recovery: %+v", rec)
	}
	// A permissive Read (and so a permissive storage.Load) counts the
	// gap exactly as a permissive Open does.
	if res, err := Read(dir, 0, true); err != nil || res.Skipped != rec.SkippedRecords {
		t.Fatalf("permissive read across gap: skipped %d, open skipped %d (err %v)", res.Skipped, rec.SkippedRecords, err)
	}
	infos, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if infos[1].Status != "seq-gap" {
		t.Fatalf("inspect status %q, want seq-gap: %+v", infos[1].Status, infos[1])
	}
}

// TestBatchedSyncDurability runs eight concurrent appenders against one
// log. Append writes and fsyncs before it acks, so every acked sequence
// is already in the segment file when Append returns. Acked sequences
// are unique and totally ordered, and a reopen recovers each one with
// the delta that was acked with it.
func TestBatchedSyncDurability(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	const writers, each = 8, 25
	const total = writers * each
	var wg sync.WaitGroup
	seqs := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := l.Append(vd(int64(w*1000+i), 0, 1))
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if got, _, err := TailSeq(dir); err != nil || got < seq {
					t.Errorf("acked seq %d beyond the segment file's last seq %d (err %v)", seq, got, err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, s := range seqs {
		for _, q := range s {
			if seen[q] {
				t.Fatalf("sequence %d acked twice", q)
			}
			seen[q] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("%d acked seqs, want %d", len(seen), total)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.Records != total || rec.LastSeq != total {
		t.Fatalf("recovery after concurrent appends: %+v", rec)
	}
	res, err := Read(dir, 0, false)
	if err != nil || len(res.Deltas) != total {
		t.Fatalf("final read: n=%d err=%v", len(res.Deltas), err)
	}
	for w, s := range seqs {
		for i, q := range s {
			if id := res.Deltas[q-1].ID; id != int64(w*1000+i) {
				t.Fatalf("seq %d acked for writer %d append %d recovered ID %d", q, w, i, id)
			}
		}
	}
}

// TestConcurrentAppendScan races eight appenders against Read scans
// under -race. Every snapshot a reader observes is a clean set of whole
// records with no sequence hole below the returned last, and never a
// half-applied delta.
func TestConcurrentAppendScan(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 512})
	const writers, each = 8, 15
	const total = writers * each
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(vd(int64(w*1000+i), 0, 1, "payload", props.StringVal("xxxxxxxxxxxxxxxx"))); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		res, err := Read(dir, 0, false)
		if err != nil {
			t.Fatalf("scan during appends: %v", err)
		}
		if uint64(len(res.Deltas)) != res.LastSeq {
			t.Fatalf("scan saw %d deltas up to seq %d (hole or partial record)", len(res.Deltas), res.LastSeq)
		}
		for i, d := range res.Deltas {
			if s, _ := d.Props.Get("payload"); s.String() != "xxxxxxxxxxxxxxxx" {
				t.Fatalf("delta %d property torn: %q", i, s.String())
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Read(dir, 0, false)
	if err != nil || res.LastSeq != total || len(res.Deltas) != total {
		t.Fatalf("final read: n=%d last=%d err=%v", len(res.Deltas), res.LastSeq, err)
	}
}

// TestTailSeq checks the cheap stamp scan across fresh, appended,
// rotated and retired states.
func TestTailSeq(t *testing.T) {
	dir := t.TempDir()
	if seq, ok, err := TailSeq(dir); seq != 0 || ok || err != nil {
		t.Fatalf("empty dir: %d %v %v", seq, ok, err)
	}
	l, _ := mustOpen(t, dir, Options{})
	l.Append(vd(1, 0, 1))
	l.Append(vd(2, 0, 2))
	if seq, ok, err := TailSeq(dir); seq != 2 || !ok || err != nil {
		t.Fatalf("after appends: %d %v %v", seq, ok, err)
	}
	l.Rotate()
	if seq, ok, err := TailSeq(dir); seq != 2 || !ok || err != nil {
		t.Fatalf("after rotate (empty active): %d %v %v", seq, ok, err)
	}
	l.RetireThrough(2)
	if seq, ok, err := TailSeq(dir); seq != 2 || !ok || err != nil {
		t.Fatalf("after retire: %d %v %v", seq, ok, err)
	}
	l.Close()
}

// TestSinceIsDeterministicAcrossReaders re-reads a fixed log, after a
// recovery Open, strictly and permissively, and requires identical
// views (reflect.DeepEqual over decoded deltas).
func TestSinceIsDeterministicAcrossReaders(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 96})
	r := rand.New(rand.NewSource(7))
	for i := 1; i <= 30; i++ {
		if r.Intn(2) == 0 {
			l.Append(vd(int64(i), 0, temporal.Time(i), "k", props.Int(r.Int63n(100))))
		} else {
			l.Append(ed(int64(i), int64(r.Intn(5)), int64(r.Intn(5)), 0, temporal.Time(i)))
		}
	}
	l.Close()
	a, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	strict, err1 := Read(dir, 0, false)
	res, err2 := Read(dir, 0, true)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(strict.Deltas, res.Deltas) {
		t.Fatal("strict and permissive Read disagree")
	}
}
