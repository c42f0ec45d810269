package wal

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/props"
	"repro/internal/temporal"
)

// The WAL crash property (run by `make test-race`): a crash injected
// at ANY storage.wal.* site, at ANY append cadence, leaves a directory
// that reopens without error to exactly the acked prefix — every
// Append that returned a sequence number is recovered, every Append
// that returned an error is recovered to either its pre-append or
// post-append state, and the log stays appendable. Never a panic,
// never silent loss of an acked record.

// TestCrashWALMatrix is that property over sites × cadences under the
// one sync policy, SyncEachAppend ("each" in the subtest names). Each
// run appends until the injector kills the log, records which
// sequences were acked, reopens, and checks the recovered state.
func TestCrashWALMatrix(t *testing.T) {
	sites := []string{"storage.wal.append", "storage.wal.sync", "storage.wal.rotate"}
	for _, site := range sites {
		for every := 1; every <= 4; every++ {
			name := fmt.Sprintf("each/%s/every=%d", site, every)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				inj := faults.New(11+int64(every), faults.Rule{Site: site, Kind: faults.Crash, Every: every})
				l, _, err := Open(dir, Options{
					SegmentBytes: 128, // rotate often so the rotate site fires
					Hook:         inj.WriteHook(),
				})
				if err != nil {
					t.Fatal(err)
				}

				var acked uint64
				var crashed bool
				for i := 1; i <= 40; i++ {
					d := vd(int64(i), 0, temporal.Time(i), "k", props.Int(int64(i)))
					seq, err := l.Append(d)
					if err != nil {
						if !IsCrash(err) {
							t.Fatalf("append %d failed with a non-crash error: %v", i, err)
						}
						crashed = true
						// The process is dead: every later call must refuse
						// with the same crash, not resurrect the writer.
						if _, err2 := l.Append(d); !IsCrash(err2) {
							t.Fatalf("dead log accepted an append: %v", err2)
						}
						if err2 := l.Rotate(); !IsCrash(err2) {
							t.Fatalf("dead log rotated: %v", err2)
						}
						break
					}
					acked = seq
				}
				if !crashed && inj.InjectedTotal() > 0 {
					t.Fatal("injector fired but no append observed the crash")
				}

				// kill -9 happened; reopen the directory.
				l2, rec, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("recovery open after crash at %s: %v", site, err)
				}
				defer l2.Close()
				// Zero acked-record loss. Recovery may additionally keep the
				// crashed append's records if the bytes were complete on
				// disk (post-append state) — 'either pre- or post-append'.
				if rec.LastSeq < acked {
					t.Fatalf("acked seq %d lost: recovered only to %d (%+v)", acked, rec.LastSeq, rec)
				}
				if rec.LastSeq > acked+1 {
					t.Fatalf("recovered past any append ever attempted: %+v", rec)
				}
				res, err := Read(dir, 0, false)
				deltas, last := res.Deltas, res.LastSeq
				if err != nil {
					t.Fatal(err)
				}
				if uint64(len(deltas)) != last || last != rec.LastSeq {
					t.Fatalf("replay hole: %d deltas to seq %d, recovery said %d", len(deltas), last, rec.LastSeq)
				}
				for i, d := range deltas {
					if d.ID != int64(i+1) {
						t.Fatalf("replayed delta %d has ID %d: wrong or reordered record", i, d.ID)
					}
				}
				// The recovered log accepts new appends at the right seq.
				seq, err := l2.Append(vd(999, 0, 1))
				if err != nil || seq != rec.LastSeq+1 {
					t.Fatalf("append after recovery: seq=%d err=%v (want %d)", seq, err, rec.LastSeq+1)
				}
			})
		}
	}
}

// TestCrashWALDoubleCrash crashes, recovers, and crashes again at a
// different site — recovery must compose.
func TestCrashWALDoubleCrash(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(23, faults.Rule{Site: "storage.wal.append", Kind: faults.Crash, Every: 3})
	l, _, err := Open(dir, Options{Hook: inj.WriteHook()})
	if err != nil {
		t.Fatal(err)
	}
	var acked uint64
	for i := 1; ; i++ {
		seq, err := l.Append(vd(int64(i), 0, temporal.Time(i)))
		if err != nil {
			break
		}
		acked = seq
	}

	inj2 := faults.New(29, faults.Rule{Site: "storage.wal.sync", Kind: faults.Crash, Every: 2})
	l2, rec, err := Open(dir, Options{Hook: inj2.WriteHook(), SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq < acked {
		t.Fatalf("first crash lost acked records: %+v", rec)
	}
	acked2 := rec.LastSeq
	for i := 100; ; i++ {
		seq, err := l2.Append(vd(int64(i), 0, temporal.Time(i)))
		if err != nil {
			if !IsCrash(err) {
				t.Fatalf("second run: non-crash error: %v", err)
			}
			break
		}
		acked2 = seq
	}

	l3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after double crash: %v", err)
	}
	defer l3.Close()
	if rec3.LastSeq < acked2 {
		t.Fatalf("second crash lost acked records: recovered to %d, acked %d", rec3.LastSeq, acked2)
	}
	res, err := Read(dir, 0, false)
	deltas, last := res.Deltas, res.LastSeq
	if err != nil || uint64(len(deltas)) != last {
		t.Fatalf("replay after double crash: n=%d last=%d err=%v", len(deltas), last, err)
	}
}

// TestCrashWALTornBatch crashes mid-batch (multi-delta append): the
// half-written batch must be truncated whole — a batch is acked
// atomically or not at all... unless every byte of it made it to disk,
// in which case post-append recovery is also legal, but never a prefix
// of the batch presented as complete with a hole after it.
func TestCrashWALTornBatch(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(vd(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(31, faults.Rule{Site: "storage.wal.append", Kind: faults.Crash, Every: 1})
	l.opts.Hook = inj.WriteHook()
	batch := []Delta{vd(2, 0, 2), vd(3, 0, 3), vd(4, 0, 4)}
	if _, err := l.Append(batch...); !IsCrash(err) {
		t.Fatalf("batch append survived injected crash: %v", err)
	}

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// The crash writes half the batch's bytes: recovery keeps whatever
	// whole records that prefix contains — a clean prefix of the batch,
	// with the earlier acked record intact.
	if rec.LastSeq < 1 || rec.LastSeq > 4 {
		t.Fatalf("recovered to seq %d", rec.LastSeq)
	}
	res, err := Read(dir, 0, false)
	deltas, last := res.Deltas, res.LastSeq
	if err != nil || uint64(len(deltas)) != last {
		t.Fatalf("hole after torn batch: n=%d last=%d err=%v", len(deltas), last, err)
	}
	for i, d := range deltas {
		if d.ID != int64(i+1) {
			t.Fatalf("prefix property violated at %d: ID %d", i, d.ID)
		}
	}
}
