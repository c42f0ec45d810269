// Package wal is the durable append path of the storage layer: a
// segmented write-ahead log of vertex/edge tuple deltas. Each record is
// length-prefixed and CRC32-checksummed and carries a monotonic
// sequence number; segments rotate at a size threshold and are retired
// wholesale once an epoch compaction folds their records into the
// columnar layout (the MANIFEST records the subsumed sequence, see
// storage.Compact).
//
// Durability contract: the log has one writer at a time. Append
// writes its records, fsyncs the active segment and only then returns,
// all under the log's mutex (SyncEachAppend, the only policy). An
// acked append therefore survives kill -9; an append that returned an
// error may or may not be on disk, and recovery is free to keep or
// drop it (both are consistent states).
//
// Recovery: Open, Read and Inspect share one scan (scan) over every
// segment front to back, verifying framing, checksums and sequence
// continuity. An incomplete or checksum-failing record at the physical
// end of the LAST segment is a torn tail — the unmistakable signature
// of a crash mid-write — which Open truncates away (counted in
// storage.wal.torn_tails_truncated) and Read ignores. A bad record
// anywhere else, a torn header before the last segment, or a segment
// that does not continue its predecessor's sequence is mid-log
// corruption: a hard error wrapping ErrCorrupt in strict mode, a
// skip-with-count in permissive mode. A last segment whose header
// never became durable (rotation crash) is removed whole: an acked
// record implies a file fsync, which implies a durable header, so a
// torn header proves the segment holds no acked records.
//
// The package reports to the process-wide obs registry:
//
//	storage.wal.appends               Append calls acked (counter)
//	storage.wal.records               records appended (counter)
//	storage.wal.syncs                 fsyncs issued by append/rotate (counter)
//	storage.wal.rotations             segment rotations (counter)
//	storage.wal.torn_tails_truncated  torn tails cut at Open (counter)
//	storage.wal.records_skipped       corrupt records skipped, permissive (counter)
//	storage.wal.records_replayed      records decoded for replay (counter)
//	storage.wal.segments_retired      segments deleted by RetireThrough (counter)
//	storage.wal.segments              live segment files (gauge)
//	storage.wal.bytes                 live segment bytes (gauge)
//	storage.wal.append_latency        Append ack latency (histogram)
//
// Fault injection: Options.Hook is called at the crash sites
// storage.wal.append (before the record bytes are written — on
// injection, half the batch reaches the file, a torn write), then
// storage.wal.sync (before fsync) and storage.wal.rotate (before a
// rotation). An injected error marks the log dead — every later call
// returns it, modelling the process being gone — and leaves the
// on-disk state exactly as the crash would.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrCorrupt marks mid-log corruption: a record that fails its
// checksum (or cannot be decoded) with valid data after it, anywhere
// that is not the torn tail of the final segment. Test with errors.Is.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrRecordTooLarge marks an append refused because one of its deltas
// encodes to a payload over maxRecordLen, which recovery would read as
// a torn tail and truncate. Nothing of the batch is written. Test with
// errors.Is.
var ErrRecordTooLarge = errors.New("wal: record too large")

var (
	obsAppends       = obs.Default().Counter("storage.wal.appends")
	obsRecords       = obs.Default().Counter("storage.wal.records")
	obsSyncs         = obs.Default().Counter("storage.wal.syncs")
	obsRotations     = obs.Default().Counter("storage.wal.rotations")
	obsTornTruncated = obs.Default().Counter("storage.wal.torn_tails_truncated")
	obsSkipped       = obs.Default().Counter("storage.wal.records_skipped")
	obsReplayed      = obs.Default().Counter("storage.wal.records_replayed")
	obsRetired       = obs.Default().Counter("storage.wal.segments_retired")
	obsSegments      = obs.Default().Gauge("storage.wal.segments")
	obsBytes         = obs.Default().Gauge("storage.wal.bytes")
	obsAppendLat     = obs.Default().Histogram("storage.wal.append_latency")
)

// Segment layout: a fixed header, then framed records (record.go).
const (
	segMagic   = "TWAL"
	segVersion = 1
	// segHeaderLen is magic + version byte + first-sequence u64.
	segHeaderLen = len(segMagic) + 1 + 8

	segPrefix = "wal-"
	segSuffix = ".seg"

	defaultSegmentBytes = int64(4 << 20)
)

// SyncMode names Append's fsync policy. SyncEachAppend is the only
// one: appends come from one writer at a time, so there is never a
// second append to share an fsync with.
type SyncMode int

// SyncEachAppend fsyncs the active segment before every Append returns.
const SyncEachAppend SyncMode = 0

// Options configures Open.
type Options struct {
	// Mode is the fsync policy; SyncEachAppend (the zero value) is the
	// only one.
	Mode SyncMode
	// SegmentBytes is the rotation threshold; <= 0 selects 4 MiB.
	SegmentBytes int64
	// Permissive skips mid-log corrupt records with a count instead of
	// failing Open (torn tails are truncated in both modes).
	Permissive bool
	// Hook is the crash-injection point, called at the
	// storage.wal.append/sync/rotate sites; nil in production. Wire it
	// to faults.Injector.WriteHook in chaos tests.
	Hook func(site string) error
	// BeforeRetire, when set, is called with the path of each segment
	// RetireThrough is about to delete. A serving writer passes
	// storage.Reclaimer.Hold, so the delete leaves the freeing of the
	// segment's blocks to the reclaimer.
	BeforeRetire func(path string)
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return defaultSegmentBytes
}

// Recovery reports what Open found and repaired.
type Recovery struct {
	// Segments and Records are the live counts after recovery.
	Segments int
	Records  int
	// LastSeq is the highest durable sequence number.
	LastSeq uint64
	// TruncatedBytes is how many torn-tail bytes were cut.
	TruncatedBytes int64
	// RemovedSegments lists segments deleted whole (torn headers from
	// rotation crashes).
	RemovedSegments []string
	// SkippedRecords counts mid-log corrupt records skipped
	// (Permissive mode only; strict Open errors instead).
	SkippedRecords int
}

// crashError marks an injected crash, mirroring the storage write
// path's contract: state is left exactly as the crash would leave it
// and the log goes dead.
type crashError struct{ err error }

func (e *crashError) Error() string { return fmt.Sprintf("wal: simulated crash: %v", e.err) }
func (e *crashError) Unwrap() error { return e.err }

// IsCrash reports whether err carries the simulated-crash marker.
func IsCrash(err error) bool {
	var ce *crashError
	return errors.As(err, &ce)
}

// span is the sequence range of one segment's records.
type span struct {
	first uint64 // sequence the first record carries (header field)
	last  uint64 // highest record sequence; < first when empty
}

// effLast is the effective last sequence: first-1 when empty.
func (s span) effLast() uint64 {
	if s.last < s.first {
		return s.first - 1
	}
	return s.last
}

// segment is the in-memory ledger entry for one segment file.
type segment struct {
	name string
	span
	bytes int64
}

// Log is an open write-ahead log over one directory. All methods are
// safe for concurrent use, and appends serialize on one mutex held
// through their fsync. There must be at most one Log open per
// directory (single writer — do not run tgraph-import -append against
// a directory a live tgraph-serve is appending to).
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // active (last) segment, nil until first append
	segs    []segment
	lastSeq uint64
	dead    error // sticky after an injected crash or a failed rollback
}

// segmentName renders the canonical file name for a segment whose
// first record carries firstSeq.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix)
}

// IsSegmentName reports whether name looks like a WAL segment file
// (used by VerifyDir/RepairDir to classify directory contents).
func IsSegmentName(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
}

// listSegments returns dir's segment file names in sequence order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && IsSegmentName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Exists reports whether dir contains any WAL segments.
func Exists(dir string) bool {
	names, err := listSegments(dir)
	return err == nil && len(names) > 0
}

func encodeSegHeader(firstSeq uint64) []byte {
	buf := make([]byte, segHeaderLen)
	copy(buf, segMagic)
	buf[len(segMagic)] = segVersion
	binary.LittleEndian.PutUint64(buf[len(segMagic)+1:], firstSeq)
	return buf
}

// errTornHeader classifies a segment whose fixed header is incomplete
// or unrecognisable.
var errTornHeader = errors.New("wal: torn segment header")

// segWalk is what walkSegment learned about one segment's bytes.
type segWalk struct {
	span       // last < first when no record accepted
	records    int
	goodBytes  int64 // truncation point: header + accepted records
	skipped    int   // corrupt records skipped (permissive)
	torn       bool  // torn tail cut at goodBytes
	headerTorn bool
}

// walkSegment walks one segment's bytes, calling fn (when non-nil)
// with each accepted record's sequence and payload. isLast selects
// torn-tail semantics for damage at the physical end; permissive
// converts mid-log corruption from a hard error into a skip.
func walkSegment(data []byte, isLast, permissive bool, fn func(seq uint64, payload []byte) error) (segWalk, error) {
	var w segWalk
	if len(data) < segHeaderLen || string(data[:len(segMagic)]) != segMagic {
		w.headerTorn = true
		return w, errTornHeader
	}
	if v := data[len(segMagic)]; v != segVersion {
		return w, fmt.Errorf("wal: segment version %d, this build reads %d: %w", v, segVersion, ErrCorrupt)
	}
	w.first = binary.LittleEndian.Uint64(data[len(segMagic)+1 : segHeaderLen])
	w.last = w.first - 1
	w.goodBytes = int64(segHeaderLen)

	// badRecord handles one mid-log corrupt record spanning recLen
	// bytes (0 = unskippable: drop the rest of the segment).
	expected := w.first
	off := segHeaderLen
	badRecord := func(recLen int, what string) (bool, error) {
		if !permissive {
			return false, fmt.Errorf("wal: %s at segment offset %d: %w", what, off, ErrCorrupt)
		}
		w.skipped++
		if recLen <= 0 {
			return false, nil // cannot resync; drop the rest
		}
		off += recLen
		expected++ // assume the lost record carried the expected seq
		return true, nil
	}
	for off < len(data) {
		rem := len(data) - off
		if rem < frameHeaderLen {
			if isLast {
				w.torn = true
				return w, nil
			}
			_, err := badRecord(0, fmt.Sprintf("%d-byte partial frame header", rem))
			return w, err
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if plen > maxRecordLen {
			// An implausible length prefix: garbage from a torn write at
			// the tail, unskippable corruption anywhere else.
			if isLast {
				w.torn = true
				return w, nil
			}
			_, err := badRecord(0, fmt.Sprintf("implausible record length %d", plen))
			return w, err
		}
		if off+frameHeaderLen+plen > len(data) {
			if isLast {
				w.torn = true
				return w, nil
			}
			_, err := badRecord(0, "record overruns segment")
			return w, err
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+plen]
		recLen := frameHeaderLen + plen
		if crc32.ChecksumIEEE(payload) != crc {
			// A checksum-failing record that reaches exactly the physical
			// end of the last segment is the torn final write of a crash;
			// one with valid data after it is mid-log corruption.
			if isLast && off+recLen == len(data) {
				w.torn = true
				return w, nil
			}
			if cont, err := badRecord(recLen, "record fails its CRC"); !cont {
				return w, err
			}
			continue
		}
		seq, n := binary.Uvarint(payload)
		if n <= 0 {
			if cont, err := badRecord(recLen, "record sequence undecodable"); !cont {
				return w, err
			}
			continue
		}
		if seq != expected {
			if !permissive {
				return w, fmt.Errorf("wal: sequence gap at segment offset %d (want %d, got %d): %w",
					off, expected, seq, ErrCorrupt)
			}
			w.skipped++
			expected = seq // adopt and continue
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				if cont, err := badRecord(recLen, err.Error()); !cont {
					return w, err
				}
				continue
			}
		}
		off += recLen
		w.records++
		w.last = seq
		w.goodBytes = int64(off)
		expected = seq + 1
	}
	return w, nil
}

// segScan is what the recovery scan found in one segment file.
type segScan struct {
	name    string
	isLast  bool
	size    int64 // file bytes
	w       segWalk
	readErr error // the file could not be read; w is zero
	walkErr error // walkSegment's error (errTornHeader when w.headerTorn)
	// gap reports that the segment does not continue prevLast, the
	// effective last sequence of the previous segment that walked
	// cleanly.
	gap      bool
	prevLast uint64
}

// scan is the one recovery loop over dir's WAL: it lists the segments
// and, in sequence order, reads and walks each one (fn as in
// walkSegment, torn-tail semantics on the last segment only), checks
// that it continues the previous clean segment's sequence, and hands
// it to visit; a visit error stops the scan. Open repairs from what it
// finds, Read decodes through fn and Inspect classifies.
func scan(dir string, permissive bool, fn func(seq uint64, payload []byte) error, visit func(segScan) error) error {
	names, err := listSegments(dir)
	if err != nil {
		return err
	}
	var prevLast uint64
	seen := false
	for i, name := range names {
		s := segScan{name: name, isLast: i == len(names)-1, prevLast: prevLast}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.readErr = err
		} else {
			s.size = int64(len(data))
			s.w, s.walkErr = walkSegment(data, s.isLast, permissive, fn)
			if s.walkErr == nil {
				s.gap = seen && s.w.first != prevLast+1
				seen, prevLast = true, s.w.effLast()
			}
		}
		if err := visit(s); err != nil {
			return err
		}
	}
	return nil
}

// check is the damage policy Open and Read share for everything except
// a torn tail and a header-torn last segment, which each handles its
// own way. A read or walk failure is an error. A header-torn segment
// before the last, or a segment that breaks sequence continuity, fails
// a strict reader with an error wrapping ErrCorrupt and counts one
// skipped record for a permissive one. skipped includes the records
// the walk itself skipped.
func (s segScan) check(dir string, permissive bool) (skipped int, err error) {
	path := filepath.Join(dir, s.name)
	switch {
	case s.readErr != nil:
		return 0, fmt.Errorf("wal: read %s: %w", path, s.readErr)
	case s.w.headerTorn && !permissive:
		return 0, fmt.Errorf("wal: %s: %w: %w", path, errTornHeader, ErrCorrupt)
	case s.w.headerTorn:
		return 1, nil
	case s.walkErr != nil:
		return 0, fmt.Errorf("wal: %s: %w", path, s.walkErr)
	case s.gap && !permissive:
		return 0, fmt.Errorf("wal: %s starts at seq %d, previous segment ended at %d: %w",
			path, s.w.first, s.prevLast, ErrCorrupt)
	case s.gap:
		return s.w.skipped + 1, nil
	}
	return s.w.skipped, nil
}

// Open opens (creating if needed) the WAL of a graph directory,
// running recovery first: torn tails are truncated, a header-torn last
// segment is removed, and mid-log corruption is a hard error (strict)
// or a skip-with-count (Options.Permissive). The returned Recovery
// describes what was found.
func Open(dir string, opts Options) (*Log, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	var rec Recovery
	err := scan(dir, opts.Permissive, nil, func(s segScan) error {
		path := filepath.Join(dir, s.name)
		if s.w.headerTorn && s.isLast {
			// Rotation crash: the header was never fsynced, so no record
			// in this file can have been acked. Remove it whole.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: remove torn segment %s: %w", path, err)
			}
			rec.RemovedSegments = append(rec.RemovedSegments, s.name)
			rec.TruncatedBytes += s.size
			obsTornTruncated.Add(1)
			return nil
		}
		skipped, err := s.check(dir, opts.Permissive)
		rec.SkippedRecords += skipped
		if err != nil || s.w.headerTorn {
			return err
		}
		if s.w.torn || s.w.goodBytes < s.size {
			// Truncate the torn tail (or, permissive, trailing skipped
			// garbage) so the durable state is exactly the accepted prefix.
			if err := truncateSegment(path, s.w.goodBytes); err != nil {
				return err
			}
			rec.TruncatedBytes += s.size - s.w.goodBytes
			if s.w.torn {
				obsTornTruncated.Add(1)
			}
		}
		l.segs = append(l.segs, segment{name: s.name, span: s.w.span, bytes: s.w.goodBytes})
		rec.Records += s.w.records
		l.lastSeq = max(l.lastSeq, s.w.effLast())
		return nil
	})
	if err != nil {
		return nil, rec, err
	}
	rec.Segments = len(l.segs)
	rec.LastSeq = l.lastSeq
	obsSkipped.Add(int64(rec.SkippedRecords))
	if len(l.segs) > 0 {
		active := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, active.name), os.O_WRONLY, 0)
		if err != nil {
			return nil, rec, fmt.Errorf("wal: open active segment: %w", err)
		}
		if _, err := f.Seek(active.bytes, 0); err != nil {
			f.Close()
			return nil, rec, fmt.Errorf("wal: seek active segment: %w", err)
		}
		l.f = f
	}
	l.publishGauges()
	return l, rec, nil
}

// truncateSegment cuts a segment file to size and makes the cut
// durable.
func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", path, err)
	}
	obsSyncs.Add(1)
	return nil
}

// publishGauges refreshes the segment/bytes gauges from l's ledger.
// Callers hold l.mu (or have exclusive access during Open).
func (l *Log) publishGauges() {
	var bytes int64
	for _, s := range l.segs {
		bytes += s.bytes
	}
	obsSegments.Set(int64(len(l.segs)))
	obsBytes.Set(bytes)
}

// fire evaluates the crash hook at site; a non-nil return marks the
// log dead (the process "crashed") and is wrapped as a crash error.
// Callers hold l.mu.
func (l *Log) fireLocked(site string) error {
	if l.opts.Hook == nil {
		return nil
	}
	if err := l.opts.Hook(site); err != nil {
		ce := &crashError{err: err}
		l.dead = ce
		return ce
	}
	return nil
}

// LastSeq returns the highest acked sequence number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Bytes returns the live segment bytes (headers included).
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.segs {
		n += s.bytes
	}
	return n
}

// ensureActiveLocked opens the active segment, creating the first one
// lazily. Callers hold l.mu.
func (l *Log) ensureActiveLocked() error {
	if l.f != nil {
		return nil
	}
	return l.createSegmentLocked(l.lastSeq + 1)
}

// createSegmentLocked creates a fresh segment whose first record will
// carry firstSeq, making the file itself durable (header fsync + dir
// fsync) before any record lands in it — the guarantee that lets
// recovery delete a header-torn segment whole.
func (l *Log) createSegmentLocked(firstSeq uint64) error {
	name := segmentName(firstSeq)
	path := filepath.Join(l.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	if _, err := f.Write(encodeSegHeader(firstSeq)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync segment %s: %w", path, err)
	}
	obsSyncs.Add(1)
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segs = append(l.segs, segment{name: name, span: span{first: firstSeq, last: firstSeq - 1}, bytes: int64(segHeaderLen)})
	l.publishGauges()
	return nil
}

// syncDir fsyncs a directory so renames/creates/removes in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir %s: %w", dir, err)
	}
	obsSyncs.Add(1)
	return nil
}

// Append logs deltas as consecutive records and returns the sequence
// number of the last one once the active segment is fsynced. The
// write, the fsync and the ledger update all happen under l.mu, so
// concurrent appends serialize. An error return means the records are
// NOT acked: they may or may not survive, and recovery treating either
// outcome as truth is correct. Appending zero deltas is a no-op
// returning the current last sequence. A batch holding a delta whose
// record would exceed maxRecordLen is refused whole with
// ErrRecordTooLarge before a byte is written; the log stays appendable.
func (l *Log) Append(deltas ...Delta) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return 0, l.dead
	}
	if len(deltas) == 0 {
		return l.lastSeq, nil
	}
	start := time.Now()
	var buf []byte
	for i, d := range deltas {
		n := len(buf)
		buf = encodeRecord(buf, l.lastSeq+1+uint64(i), d)
		if plen := len(buf) - n - frameHeaderLen; plen > maxRecordLen {
			return 0, fmt.Errorf("wal: delta %d encodes to %d bytes, over %d: %w", i, plen, maxRecordLen, ErrRecordTooLarge)
		}
	}
	if err := l.ensureActiveLocked(); err != nil {
		return 0, err
	}
	if l.segs[len(l.segs)-1].bytes >= l.opts.segmentBytes() {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if err := l.fireLocked("storage.wal.append"); err != nil {
		// Simulated crash mid-write: half the batch reaches the file (a
		// torn write for recovery to truncate), the log is dead.
		l.f.Write(buf[:len(buf)/2])
		return 0, err
	}
	seg := &l.segs[len(l.segs)-1]
	if wrote, err := l.f.Write(buf); err != nil {
		l.rollbackLocked(seg.bytes)
		return 0, fmt.Errorf("wal: append (%d/%d bytes): %w", wrote, len(buf), err)
	}
	if err := l.fireLocked("storage.wal.sync"); err != nil {
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		l.rollbackLocked(seg.bytes)
		return 0, fmt.Errorf("wal: fsync active segment: %w", err)
	}
	obsSyncs.Add(1)
	seg.bytes += int64(len(buf))
	l.lastSeq += uint64(len(deltas))
	seg.last = l.lastSeq
	l.publishGauges()
	obsAppends.Add(1)
	obsRecords.Add(int64(len(deltas)))
	obsAppendLat.Observe(time.Since(start))
	return l.lastSeq, nil
}

// rollbackLocked cuts the active segment back to size, its length
// before a failed write or fsync, so the unacked records are gone and
// the log stays appendable. If the cut fails the log goes dead: an
// append after the stray bytes would break sequence continuity.
// Callers hold l.mu.
func (l *Log) rollbackLocked(size int64) {
	err := l.f.Truncate(size)
	if err == nil {
		_, err = l.f.Seek(size, 0)
	}
	if err != nil {
		l.dead = fmt.Errorf("wal: roll back failed append: %w", err)
	}
}

// Rotate closes the active segment (fsyncing it) and starts a fresh
// one. Compaction rotates first so every record it folds lives in
// closed, retirable segments.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return l.dead
	}
	if l.f == nil {
		return nil
	}
	if n := len(l.segs); n > 0 && l.lastSeq < l.segs[n-1].first {
		// The active segment holds no records yet; rotating it would
		// recreate a segment with the same first sequence.
		return nil
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.fireLocked("storage.wal.rotate"); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync before rotate: %w", err)
	}
	obsSyncs.Add(1)
	if err := l.f.Close(); err != nil {
		l.f = nil
		return fmt.Errorf("wal: close rotated segment: %w", err)
	}
	l.f = nil
	if err := l.createSegmentLocked(l.lastSeq + 1); err != nil {
		return err
	}
	obsRotations.Add(1)
	return nil
}

// RetireThrough deletes closed segments whose every record's sequence
// is <= seq (they are subsumed by a committed epoch). The active
// segment is never deleted. Returns how many segments were removed.
func (l *Log) RetireThrough(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead != nil {
		return 0, l.dead
	}
	var kept []segment
	removed := 0
	for i, s := range l.segs {
		active := i == len(l.segs)-1 && l.f != nil
		if !active && s.effLast() <= seq {
			path := filepath.Join(l.dir, s.name)
			if l.opts.BeforeRetire != nil {
				l.opts.BeforeRetire(path)
			}
			if err := os.Remove(path); err != nil {
				return removed, fmt.Errorf("wal: retire %s: %w", s.name, err)
			}
			removed++
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
		obsRetired.Add(int64(removed))
	}
	l.publishGauges()
	return removed, nil
}

// Close fsyncs and closes the active segment. A dead (crashed) log
// closes its file descriptor but reports the crash.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.dead
	}
	f := l.f
	l.f = nil
	if l.dead != nil {
		f.Close()
		return l.dead
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync on close: %w", err)
	}
	obsSyncs.Add(1)
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// ReadResult is what Read recovered from a directory's segments.
type ReadResult struct {
	// Deltas are the decoded records with sequence > the requested
	// floor, in sequence order.
	Deltas []Delta
	// FirstSeq and LastSeq span every live record on disk (not just
	// the returned ones); both 0 when the directory has no WAL.
	FirstSeq, LastSeq uint64
	// Records counts live records on disk; Skipped counts corrupt ones
	// skipped (permissive).
	Records int
	Skipped int
	// Segments is the live segment-file count; Torn reports whether a
	// torn tail was (tolerantly) ignored.
	Segments int
	Torn     bool
}

// Read scans dir's WAL read-only and returns every delta with
// sequence > afterSeq. Torn tails are tolerated without repair (use
// Open to truncate them); mid-log corruption is a hard error wrapping
// ErrCorrupt unless permissive, which skips with a count. A directory
// with no segments returns an empty result.
func Read(dir string, afterSeq uint64, permissive bool) (ReadResult, error) {
	var res ReadResult
	decode := func(seq uint64, payload []byte) error {
		if seq <= afterSeq {
			return nil
		}
		rseq, d, err := decodePayload(payload)
		if err != nil {
			return err
		}
		if rseq != seq {
			return fmt.Errorf("wal: payload seq %d disagrees with frame scan %d", rseq, seq)
		}
		res.Deltas = append(res.Deltas, d)
		return nil
	}
	err := scan(dir, permissive, decode, func(s segScan) error {
		if errors.Is(s.readErr, os.ErrNotExist) {
			return nil // retired between listing and reading
		}
		if s.w.headerTorn && s.isLast {
			res.Torn = true
			return nil // rotation crash; nothing acked in it
		}
		skipped, err := s.check(dir, permissive)
		res.Skipped += skipped
		if err != nil || s.w.headerTorn {
			return err
		}
		if res.Segments == 0 {
			res.FirstSeq = s.w.first
		}
		res.Segments++
		res.Records += s.w.records
		res.Torn = res.Torn || s.w.torn
		res.LastSeq = max(res.LastSeq, s.w.effLast())
		return nil
	})
	if err != nil {
		return res, err
	}
	obsReplayed.Add(int64(len(res.Deltas)))
	return res, nil
}

// TailSeq returns the last live sequence number of dir's WAL, plus
// whether a WAL exists at all. It is the cheap read used to fold the
// WAL position into storage.Stamp: only the final segment is walked
// (tolerating a torn tail), or the one before it when the final
// segment's header is torn, since such a segment holds nothing acked.
func TailSeq(dir string) (uint64, bool, error) {
	names, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		return 0, false, err
	}
	for i := len(names) - 1; i >= max(0, len(names)-2); i-- {
		path := filepath.Join(dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, true, fmt.Errorf("wal: read %s: %w", path, err)
		}
		if w, _ := walkSegment(data, true, true, nil); !w.headerTorn {
			return w.effLast(), true, nil
		}
	}
	return 0, true, nil
}

// SegmentInfo is one segment's line in a WAL inspection (VerifyDir).
type SegmentInfo struct {
	// Name is the segment file name.
	Name string
	// FirstSeq is the header's first sequence; LastSeq the last record
	// accepted (FirstSeq-1 when empty).
	FirstSeq, LastSeq uint64
	// Records and Bytes describe the accepted prefix.
	Records int
	Bytes   int64
	// Status is "ok", "torn-tail" (damage at the physical end of the
	// final segment, repairable by truncation), "torn-header" (a
	// rotation-crash remnant), "corrupt-records" (mid-log damage) or
	// "seq-gap" (discontinuity with the previous segment).
	Status string
	// Detail elaborates on non-ok statuses.
	Detail string
}

// Inspect reports the structural health of dir's WAL segments without
// mutating anything. The error return is reserved for not being able
// to look at all.
func Inspect(dir string) ([]SegmentInfo, error) {
	var infos []SegmentInfo
	// Walk permissively so one bad record still yields counts, then
	// classify from what the walk found.
	checkPayload := func(seq uint64, payload []byte) error {
		_, _, err := decodePayload(payload)
		return err
	}
	err := scan(dir, true, checkPayload, func(s segScan) error {
		info := SegmentInfo{Name: s.name, FirstSeq: s.w.first, LastSeq: s.w.effLast(),
			Records: s.w.records, Bytes: s.size, Status: "ok"}
		switch {
		case s.readErr != nil:
			info.Status = "unreadable"
			info.Detail = s.readErr.Error()
		case s.w.headerTorn:
			info.Status = "torn-header"
			info.Detail = "segment header incomplete (rotation crash remnant)"
		case s.walkErr != nil:
			info.Status = "corrupt-records"
			info.Detail = s.walkErr.Error()
		case s.gap:
			info.Status = "seq-gap"
			info.Detail = fmt.Sprintf("starts at seq %d, previous segment ended at %d", s.w.first, s.prevLast)
		case s.w.skipped > 0:
			info.Status = "corrupt-records"
			info.Detail = fmt.Sprintf("%d corrupt record(s) mid-log", s.w.skipped)
		case s.w.torn:
			info.Status = "torn-tail"
			info.Detail = fmt.Sprintf("%d torn byte(s) after the last complete record", s.size-s.w.goodBytes)
		}
		infos = append(infos, info)
		return nil
	})
	return infos, err
}
