package storage

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/storage/wal"
)

// Epoch-compaction metrics: completed compactions and the records they
// folded out of the write-ahead log into columnar epochs.
var (
	obsCompactions      = obs.Default().Counter("storage.compactions")
	obsCompactedRecords = obs.Default().Counter("storage.compacted_records")
)

// CompactResult reports what an epoch compaction did.
type CompactResult struct {
	// Folded is the number of WAL records the new epoch's files absorbed.
	Folded int
	// WALSeq is the subsumption point the new manifest records.
	WALSeq uint64
	// SegmentsRetired is the number of fully-subsumed WAL segments removed.
	SegmentsRetired int
	// Stamp is the BaseStamp of the directory's MANIFEST after the call:
	// the one the compaction committed, or the one it found when there
	// was nothing to fold ("" if the directory has none).
	Stamp string
}

// Compact folds a directory's write-ahead-log tail into a fresh
// columnar epoch: it rotates the log (so the records being folded sit
// in closed segments), loads the graph — which replays every
// unsubsumed record — commits it with SaveGraph recording the captured
// tail sequence as the manifest's WALSeq, and retires the segments the
// new epoch subsumes.
//
// The caller must hold the directory's single-writer role for the
// whole call: the captured sequence is the log's tail at rotation
// time, and an append racing past it would be folded into the files
// yet replayed again by the next Load. The serving layer runs Compact
// under the same lock that serialises appends.
//
// l is the open log when the caller is the live writer; nil opens a
// transient one (offline compaction via tgraph-cli). Crash safety is
// inherited from the pieces: a crash before SaveGraph's manifest
// commit leaves the old epoch plus the intact log (replay reproduces
// everything); a crash after it leaves the new epoch with the records
// subsumed, and the stale segments are retired by the next Compact or
// RepairDir. Either way no acked record is lost and none is applied
// twice. The fault site storage.wal.compact fires at entry;
// SaveGraph's storage.write.* sites cover the commit window.
//
// With nothing to fold it still saves when the MANIFEST lacks a layout
// opts writes: tgraph-cli -compact restores the nested layout.
//
// With opts.Reclaim set, the replaced files and retired segments are
// held rather than freed, and Compact settles the Reclaimer when it
// returns, so the caller does not wait for the frees.
func Compact(ctx *dataflow.Context, dir string, l *wal.Log, opts SaveOptions) (CompactResult, error) {
	defer opts.Reclaim.Settle()
	if err := opts.FaultHook.fire("storage.wal.compact"); err != nil {
		return CompactResult{}, err
	}
	if l == nil {
		var err error
		l, _, err = wal.Open(dir, wal.Options{})
		if err != nil {
			return CompactResult{}, fmt.Errorf("storage: compact %s: %w", dir, err)
		}
		defer l.Close()
	}
	if err := l.Rotate(); err != nil {
		return CompactResult{}, fmt.Errorf("storage: compact %s: %w", dir, err)
	}
	walSeq := l.LastSeq()

	var subsumed uint64
	var stamp string
	stored := true // the directory holds every layout this save writes
	if man, err := ReadManifest(dir); err == nil && man != nil {
		subsumed, stamp = man.WALSeq, man.BaseStamp()
		stored = opts.SkipNested || man.Entry(NestedVerticesFile) != nil
	}
	if walSeq <= subsumed && stored {
		// Nothing new to fold and no layout to restore; just retire
		// leftover subsumed segments (e.g. after a crash between a
		// previous compaction's commit and its retirement step).
		retired, err := l.RetireThrough(subsumed)
		if err != nil {
			return CompactResult{WALSeq: subsumed, Stamp: stamp}, fmt.Errorf("storage: compact %s: %w", dir, err)
		}
		return CompactResult{WALSeq: subsumed, SegmentsRetired: retired, Stamp: stamp}, nil
	}

	g, stats, err := Load(ctx, dir, LoadOptions{Rep: core.RepVE})
	if err != nil {
		return CompactResult{}, fmt.Errorf("storage: compact %s: %w", dir, err)
	}
	opts.WALSeq = walSeq
	if stamp, err = saveGraph(dir, g, opts); err != nil {
		return CompactResult{}, err
	}
	retired, err := l.RetireThrough(walSeq)
	if err != nil {
		return CompactResult{Folded: stats.WALReplayed, WALSeq: walSeq, Stamp: stamp},
			fmt.Errorf("storage: compact %s: %w", dir, err)
	}
	obsCompactions.Add(1)
	obsCompactedRecords.Add(int64(stats.WALReplayed))
	return CompactResult{Folded: stats.WALReplayed, WALSeq: walSeq, SegmentsRetired: retired, Stamp: stamp}, nil
}
