package storage

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

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

	vf, err := os.Open(in + "/vertices.csv")
	if err != nil {
		return stats, fmt.Errorf("storage: append-csv: %w", err)
	}
	err = streamCSV(vf, []string{"id", "start", "end"}, func(row, labels []string) error {
		id, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return fmt.Errorf("id: %v", err)
		}
		iv, err := parseIntervalCells(row[1], row[2])
		if err != nil {
			return err
		}
		return add(wal.Delta{
			Kind: wal.KindVertex, ID: id, Interval: iv,
			Props: parsePropCells(row[3:], labels),
		})
	})
	vf.Close()
	if err != nil {
		return stats, fmt.Errorf("storage: append-csv: vertices.csv: %w", err)
	}

	ef, err := os.Open(in + "/edges.csv")
	switch {
	case os.IsNotExist(err):
		err = nil
	case err != nil:
		return stats, fmt.Errorf("storage: append-csv: %w", err)
	default:
		err = streamCSV(ef, []string{"id", "src", "dst", "start", "end"}, func(row, labels []string) error {
			nums := make([]int64, 3)
			for j := 0; j < 3; j++ {
				v, err := strconv.ParseInt(row[j], 10, 64)
				if err != nil {
					return fmt.Errorf("col %d: %v", j+1, err)
				}
				nums[j] = v
			}
			iv, err := parseIntervalCells(row[3], row[4])
			if err != nil {
				return err
			}
			return add(wal.Delta{
				Kind: wal.KindEdge, ID: nums[0], Src: nums[1], Dst: nums[2],
				Interval: iv, Props: parsePropCells(row[5:], labels),
			})
		})
		ef.Close()
		if err != nil {
			return stats, fmt.Errorf("storage: append-csv: edges.csv: %w", err)
		}
	}
	return stats, flush()
}

// streamCSV reads one CSV file row-by-row: it validates the fixed
// header prefix (property labels are the header tail, as in readCSV)
// and calls row for every data row without accumulating the file.
func streamCSV(r io.Reader, fixed []string, row func(cells, labels []string) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("missing header")
	}
	if err != nil {
		return err
	}
	if len(header) < len(fixed) {
		return fmt.Errorf("header %v lacks required columns %v", header, fixed)
	}
	for i, want := range fixed {
		if !strings.EqualFold(strings.TrimSpace(header[i]), want) {
			return fmt.Errorf("header column %d is %q, want %q", i+1, header[i], want)
		}
	}
	labels := header[len(fixed):]
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(rec) != len(header) {
			return fmt.Errorf("row %d has %d cells, header has %d", line, len(rec), len(header))
		}
		if err := row(rec, labels); err != nil {
			return fmt.Errorf("row %d: %w", line, err)
		}
	}
}
