package storage

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage/wal"
)

// Offline ingestion: stream CSV states into an existing graph
// directory's write-ahead log without materialising a graph. This is
// the batch companion to the serve layer's POST /v1/append — the same
// records, the same durability contract, but driven from files and
// usable while no server owns the directory (the WAL is single-writer:
// never run AppendCSV against a directory a live tgraph-serve is
// serving).

// AppendStats reports what one AppendCSV run acked durable: the record
// count and the WAL sequence range the records were logged at (both
// seqs 0 when nothing was appended).
type AppendStats struct {
	Records           int
	FirstSeq, LastSeq uint64
}

// AppendCSV streams vertices.csv (and edges.csv, if present) from the
// in directory into the write-ahead log of the existing graph
// directory dir, batch records per fsynced append (batch < 1 selects
// 512). Rows are converted straight to WAL deltas row-by-row — the
// file is never held in memory whole — and the next Load (or Compact)
// folds them into the graph. It returns the
// acked record count and sequence range; on error, records already
// appended and synced stay durable (the WAL is append-only; re-running
// the import duplicates rows, so fix the input and compact rather than
// blindly retrying).
func AppendCSV(dir, in string, batch int, opts wal.Options) (stats AppendStats, err error) {
	man, merr := ReadManifest(dir)
	if merr != nil {
		return stats, fmt.Errorf("storage: append-csv: %w", merr)
	}
	if man == nil {
		return stats, fmt.Errorf("storage: append-csv: %s is not a committed graph directory (no %s): %w",
			dir, ManifestFile, ErrIncompleteSave)
	}
	if batch < 1 {
		batch = 512
	}
	l, _, err := wal.Open(dir, opts)
	if err != nil {
		return stats, err
	}
	defer func() {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}()

	buf := make([]wal.Delta, 0, batch)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		last, err := l.Append(buf...)
		if err != nil {
			return err
		}
		if stats.Records == 0 {
			stats.FirstSeq = last - uint64(len(buf)) + 1
		}
		stats.LastSeq = last
		stats.Records += len(buf)
		buf = buf[:0]
		return nil
	}
	add := func(d wal.Delta) error {
		buf = append(buf, d)
		if len(buf) >= batch {
			return flush()
		}
		return nil
	}

	err = streamCSVDir(in,
		func(v core.VertexTuple) error { return add(wal.VertexDelta(v)) },
		func(e core.EdgeTuple) error { return add(wal.EdgeDelta(e)) })
	if err != nil {
		return stats, fmt.Errorf("storage: append-csv: %w", err)
	}
	return stats, flush()
}
