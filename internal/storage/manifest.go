package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/storage/wal"
)

// QuarantineDir is the subdirectory RepairDir moves unexpected litter
// into instead of deleting it: files the storage layer never writes
// may still be someone's data, so repair makes the directory loadable
// without destroying evidence.
const QuarantineDir = "quarantine"

// The MANIFEST file is the commit record of a graph directory.
// SaveGraph stages every data file as a fsynced temp file, renames them
// all into place, and writes the manifest last — atomically — so the
// manifest's existence and consistency is the transaction boundary: a
// directory whose manifest is missing or torn is an incomplete save,
// and one whose manifest disagrees with the files on disk was caught
// mid-commit (or damaged afterwards). Load distinguishes the two with
// ErrIncompleteSave and ErrManifestMismatch; VerifyDir and RepairDir
// are the offline recovery tools.

// ManifestFile is the commit-record file name inside a graph directory.
const ManifestFile = "MANIFEST"

// FormatEpoch is the manifest format generation this build writes and
// the only one it reads: a manifest with any other epoch was produced
// by a different layout and is refused rather than misread.
//
// Epoch history:
//
//	1 — initial manifest format; chunks carry 6 columns with property
//	    keys inlined as strings in every blob. No writer produces it
//	    any more; such chunks are rejected by their column count.
//	2 — chunks carry a 7th column: the per-chunk key dictionary;
//	    property blobs reference keys by dictionary index.
const FormatEpoch = 2

// Typed errors distinguishing the two ways a directory can fail its
// crash-consistency check. Both are wrapped with detail; test with
// errors.Is.
var (
	// ErrIncompleteSave marks a directory without a valid manifest: the
	// save that produced it never reached its commit point (or the
	// directory predates the manifest format). Permissive loads fall
	// back to reading such directories best-effort.
	ErrIncompleteSave = errors.New("storage: incomplete save (missing or torn MANIFEST)")
	// ErrManifestMismatch marks a directory whose valid manifest
	// disagrees with the files on disk: a save crashed between renaming
	// data files and committing the manifest, or the files were damaged
	// after commit.
	ErrManifestMismatch = errors.New("storage: manifest mismatch")
	// ErrLayoutNotStored marks a load, strict or Permissive, of a layout
	// a valid manifest does not list (a SaveOptions.SkipNested save): any
	// such files on disk miss the WAL records the manifest folded.
	ErrLayoutNotStored = errors.New("storage: layout not stored")
)

// ManifestEntry describes one committed file.
type ManifestEntry struct {
	// Name is the file name relative to the directory.
	Name string `json:"name"`
	// Size is the exact byte size of the committed file.
	Size int64 `json:"size"`
	// CRC is the CRC32 (IEEE) of the whole file.
	CRC uint32 `json:"crc"`
	// Rows is the number of rows (flat) or entities (nested) stored.
	Rows int `json:"rows"`
	// SortOrder records the on-disk order of flat files ("temporal" |
	// "structural"); nested files leave it empty.
	SortOrder string `json:"sortOrder,omitempty"`
}

// Manifest is the parsed MANIFEST file.
type Manifest struct {
	// Epoch is the format generation that wrote the directory.
	Epoch int `json:"epoch"`
	// SaveEpoch is a per-directory save counter: each successful
	// SaveGraph commits the previous manifest's SaveEpoch + 1. Unlike
	// Epoch (the format generation, fixed per build) it changes on every
	// save, giving cached query results an identity to invalidate on;
	// see Stamp. Manifests written before this field existed read as 0.
	SaveEpoch int64 `json:"saveEpoch,omitempty"`
	// WALSeq is the highest write-ahead-log sequence number this
	// epoch's files subsume: Load replays only WAL records with a
	// later sequence, which is what makes replay idempotent across
	// compaction crashes (see Compact). Manifests written before the
	// WAL existed read as 0 — replay everything.
	WALSeq uint64 `json:"walSeq,omitempty"`
	// Entries lists every committed file.
	Entries []ManifestEntry `json:"files"`
	// CRC is the CRC32 of the JSON encoding of Entries, making a torn
	// manifest detectable independently of the JSON parser.
	CRC uint32 `json:"crc"`
}

// Entry returns the manifest entry for name, or nil.
func (m *Manifest) Entry(name string) *ManifestEntry {
	for i := range m.Entries {
		if m.Entries[i].Name == name {
			return &m.Entries[i]
		}
	}
	return nil
}

func entriesCRC(entries []ManifestEntry) (uint32, error) {
	b, err := json.Marshal(entries)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(b), nil
}

// writeManifest atomically writes the MANIFEST commit record,
// advancing the directory's SaveEpoch past the previous manifest's and
// recording the WAL sequence the committed files subsume. It returns
// the BaseStamp of the manifest it wrote.
func writeManifest(dir string, entries []ManifestEntry, walSeq uint64, hook WriteHook) (string, error) {
	var prevSave int64
	if prev, err := ReadManifest(dir); err == nil && prev != nil {
		prevSave = prev.SaveEpoch
		if walSeq < prev.WALSeq {
			// A plain re-save never rolls the subsumption point back.
			walSeq = prev.WALSeq
		}
	}
	m := Manifest{Epoch: FormatEpoch, SaveEpoch: prevSave + 1, WALSeq: walSeq, Entries: entries}
	data, err := encodeManifest(&m)
	if err != nil {
		return "", fmt.Errorf("storage: encode manifest: %w", err)
	}
	_, err = atomicWriteFile(filepath.Join(dir, ManifestFile), hook, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
	return m.BaseStamp(), err
}

// encodeManifest sets m.CRC to the CRC of m's entries and returns the
// MANIFEST bytes of m — the bytes ParseManifest reads back to m.
func encodeManifest(m *Manifest) ([]byte, error) {
	crc, err := entriesCRC(m.Entries)
	if err != nil {
		return nil, err
	}
	m.CRC = crc
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ReadManifest reads and validates dir's MANIFEST. A missing manifest
// returns (nil, nil) — the caller decides between legacy fallback and
// ErrIncompleteSave; a torn or unparseable one returns an error wrapping
// ErrIncompleteSave; an unsupported epoch wraps ErrManifestMismatch.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read manifest: %w", err)
	}
	return ParseManifest(dir, data)
}

// ParseManifest decodes and validates the bytes of dir's MANIFEST with
// ReadManifest's rules (dir only names the file in errors).
func ParseManifest(dir string, data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: %s/%s is torn (%v): %w", dir, ManifestFile, err, ErrIncompleteSave)
	}
	crc, err := entriesCRC(m.Entries)
	if err != nil || crc != m.CRC {
		return nil, fmt.Errorf("storage: %s/%s fails its CRC check: %w", dir, ManifestFile, ErrIncompleteSave)
	}
	if m.Epoch != FormatEpoch {
		return nil, fmt.Errorf("storage: %s/%s has format epoch %d, this build reads only %d: %w",
			dir, ManifestFile, m.Epoch, FormatEpoch, ErrManifestMismatch)
	}
	return &m, nil
}

// BaseStamp returns the epoch identity of a graph directory: the part
// of its cache-invalidation stamp that changes only when a SaveGraph
// (or Compact) commits a new MANIFEST. It deliberately ignores the
// write-ahead log, which is what lets the serving layer invalidate
// surgically on appends — the base stays stable while the WAL tail
// advances. Directories predating the manifest format fall back to a
// fingerprint of the layout files' sizes and modification times. A
// torn manifest returns its read error so callers don't cache against
// a damaged directory.
func BaseStamp(dir string) (string, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return "", err
	}
	if m != nil {
		return m.BaseStamp(), nil
	}
	var b strings.Builder
	b.WriteString("legacy")
	for _, name := range layoutFiles {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, ":%s:%d:%d", name, info.Size(), info.ModTime().UnixNano())
	}
	return b.String(), nil
}

// BaseStamp returns the BaseStamp of a directory whose MANIFEST is m.
// It is a function of the manifest alone, so equal manifest bytes imply
// an equal stamp.
func (m *Manifest) BaseStamp() string {
	return fmt.Sprintf("manifest:%d:%d:%08x", m.Epoch, m.SaveEpoch, m.CRC)
}

// Stamp returns the full identity token for the committed contents of
// a graph directory, suitable as a cache-invalidation key: the
// BaseStamp, plus — when the directory carries WAL records the
// manifest does not subsume — the log's tail sequence, so every acked
// append changes the stamp too. Compaction folds the tail into the
// base (the new manifest subsumes it) without changing what the data
// says, and the suffix disappears.
func Stamp(dir string) (string, error) {
	base, err := BaseStamp(dir)
	if err != nil {
		return "", err
	}
	tail, ok, err := wal.TailSeq(dir)
	if err != nil {
		return "", err
	}
	if !ok {
		return base, nil
	}
	var subsumed uint64
	if m, err := ReadManifest(dir); err == nil && m != nil {
		subsumed = m.WALSeq
	}
	if tail > subsumed {
		return fmt.Sprintf("%s+wal:%d", base, tail), nil
	}
	return base, nil
}

// checkEntry verifies that the file behind a manifest entry exists with
// the recorded size (the cheap check Load performs; VerifyDir also
// recomputes the CRC).
func checkEntry(dir string, ent ManifestEntry) error {
	info, err := os.Stat(filepath.Join(dir, ent.Name))
	if err != nil {
		return fmt.Errorf("storage: %s/%s listed in manifest but unreadable (%v): %w", dir, ent.Name, err, ErrManifestMismatch)
	}
	if info.Size() != ent.Size {
		return fmt.Errorf("storage: %s/%s is %d bytes, manifest committed %d: %w", dir, ent.Name, info.Size(), ent.Size, ErrManifestMismatch)
	}
	return nil
}

// FileReport is one file's line in a VerifyReport.
type FileReport struct {
	// Name is the file name relative to the directory.
	Name string
	// Status is "ok", "missing", "size-mismatch", "crc-mismatch",
	// "unreadable", "corrupt-chunks", "orphan" (present on disk but
	// not committed by the manifest), "unexpected" (a file the storage
	// layer never writes — stray litter RepairDir quarantines), or a
	// WAL segment status ("torn-tail", "torn-header",
	// "corrupt-records", "seq-gap"; see wal.SegmentInfo).
	Status string
	// Detail elaborates on non-ok statuses.
	Detail string
	// Chunks is the number of chunks checked; BadChunks indexes the
	// ones failing their CRC.
	Chunks    int
	BadChunks []int
}

// VerifyReport is the damage report produced by VerifyDir.
type VerifyReport struct {
	Dir string
	// ManifestStatus is "ok", "missing" (legacy or incomplete save), or
	// "torn".
	ManifestStatus string
	Files          []FileReport
	// TmpFiles lists stale *.tmp litter from aborted saves.
	TmpFiles []string
	// Clean reports whether the directory passed every check.
	Clean bool
}

// String renders the damage report for the CLI.
func (r VerifyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: manifest %s\n", r.Dir, r.ManifestStatus)
	for _, f := range r.Files {
		fmt.Fprintf(&b, "  %-14s %s", f.Name, f.Status)
		if f.Chunks > 0 {
			fmt.Fprintf(&b, " (%d/%d chunks ok)", f.Chunks-len(f.BadChunks), f.Chunks)
		}
		if f.Detail != "" {
			fmt.Fprintf(&b, ": %s", f.Detail)
		}
		b.WriteByte('\n')
	}
	for _, t := range r.TmpFiles {
		fmt.Fprintf(&b, "  %-14s stale temp file from an aborted save\n", t)
	}
	if r.Clean {
		b.WriteString("  clean\n")
	} else {
		b.WriteString("  DAMAGED (use -repair to remove aborted-save litter)\n")
	}
	return b.String()
}

// layoutFiles are the file names SaveGraph may commit; used to spot
// orphans of aborted saves.
var layoutFiles = []string{FlatVerticesFile, FlatEdgesFile, NestedVerticesFile, NestedEdgesFile}

// chunkCRCs verifies every chunk CRC of a PGC or PGN file, returning
// the chunk count and the indexes of chunks failing their checksum.
func chunkCRCs(path string) (chunks int, bad []int, err error) {
	r, err := openHeads(path)
	if err != nil {
		return 0, nil, err
	}
	for i, h := range r.footer.Chunks {
		data, cerr := chunkBytes(r.data, h, "", nil)
		if cerr != nil || crc32.ChecksumIEEE(data) != h.CRC {
			bad = append(bad, i)
		}
	}
	return len(r.footer.Chunks), bad, nil
}

// expectedFile reports whether name is something the storage layer
// itself writes into a graph directory: committed layout files, the
// manifest, in-flight temp files, WAL segments, or the quarantine
// directory RepairDir moves litter into. Anything else is unexpected
// litter.
func expectedFile(name string) bool {
	if name == ManifestFile || strings.HasSuffix(name, tmpSuffix) ||
		wal.IsSegmentName(name) || name == QuarantineDir {
		return true
	}
	for _, l := range layoutFiles {
		if name == l {
			return true
		}
	}
	return false
}

// VerifyDir checks a graph directory end to end: manifest validity,
// every committed file's size and whole-file CRC, every chunk CRC
// inside the columnar files, the structural health of every WAL
// segment (torn tails, torn headers, mid-log corruption, sequence
// gaps), plus stale temp files, orphans from aborted saves and
// unexpected litter. Damage lands in the report; the error return is
// reserved for not being able to inspect the directory at all.
func VerifyDir(dir string) (VerifyReport, error) {
	rep := VerifyReport{Dir: dir, Clean: true}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rep, fmt.Errorf("storage: verify %s: %w", dir, err)
	}
	onDisk := make(map[string]bool, len(entries))
	for _, e := range entries {
		onDisk[e.Name()] = true
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			rep.TmpFiles = append(rep.TmpFiles, e.Name())
			rep.Clean = false
		}
		if !expectedFile(e.Name()) {
			rep.Files = append(rep.Files, FileReport{Name: e.Name(), Status: "unexpected",
				Detail: "not written by the storage layer (use -repair to quarantine)"})
			rep.Clean = false
		}
	}
	sort.Strings(rep.TmpFiles)

	man, manErr := ReadManifest(dir)
	switch {
	case manErr != nil:
		rep.ManifestStatus = "torn"
		rep.Clean = false
	case man == nil:
		rep.ManifestStatus = "missing"
		rep.Clean = false
	default:
		rep.ManifestStatus = "ok"
	}

	if man != nil {
		for _, ent := range man.Entries {
			fr := FileReport{Name: ent.Name, Status: "ok"}
			path := filepath.Join(dir, ent.Name)
			data, err := os.ReadFile(path)
			switch {
			case os.IsNotExist(err):
				fr.Status = "missing"
			case err != nil:
				fr.Status, fr.Detail = "unreadable", err.Error()
			case int64(len(data)) != ent.Size:
				fr.Status = "size-mismatch"
				fr.Detail = fmt.Sprintf("%d bytes on disk, %d committed", len(data), ent.Size)
			case crc32.ChecksumIEEE(data) != ent.CRC:
				fr.Status = "crc-mismatch"
			}
			if fr.Status == "ok" {
				chunks, bad, err := chunkCRCs(path)
				fr.Chunks, fr.BadChunks = chunks, bad
				if err != nil {
					fr.Status, fr.Detail = "unreadable", err.Error()
				} else if len(bad) > 0 {
					fr.Status = "corrupt-chunks"
				}
			}
			if fr.Status != "ok" {
				rep.Clean = false
			}
			rep.Files = append(rep.Files, fr)
		}
		for _, name := range layoutFiles {
			if onDisk[name] && man.Entry(name) == nil {
				rep.Files = append(rep.Files, FileReport{Name: name, Status: "orphan",
					Detail: "present on disk but not committed by the manifest"})
				rep.Clean = false
			}
		}
	}

	// WAL segments: structural health from a read-only inspection. A
	// segment whose every record is already subsumed by the manifest is
	// healthy pre-retirement state, noted but not damage.
	infos, err := wal.Inspect(dir)
	if err != nil {
		return rep, fmt.Errorf("storage: verify %s: %w", dir, err)
	}
	var subsumed uint64
	if man != nil {
		subsumed = man.WALSeq
	}
	for _, info := range infos {
		fr := FileReport{Name: info.Name, Status: info.Status, Detail: info.Detail}
		if info.Status == "ok" && info.LastSeq <= subsumed && info.Records > 0 {
			fr.Detail = fmt.Sprintf("fully subsumed by manifest walSeq %d (retirable)", subsumed)
		}
		if info.Status != "ok" {
			rep.Clean = false
		}
		rep.Files = append(rep.Files, fr)
	}
	return rep, nil
}

// removeUnlisted removes, after handing each to r, the layout files in
// dir that m does not list (a SkipNested save's old nested files, an
// aborted save's orphans), fsyncs dir if it removed any, and returns
// their names.
func removeUnlisted(dir string, m *Manifest, hook WriteHook, r *Reclaimer) ([]string, error) {
	var removed []string
	for _, name := range layoutFiles {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err != nil || m.Entry(name) != nil {
			continue
		}
		if err := hook.fire("storage.write.remove"); err != nil {
			return removed, err
		}
		r.Hold(path)
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("storage: remove %s: %w", path, err)
		}
		removed = append(removed, name)
	}
	if len(removed) == 0 {
		return nil, nil
	}
	return removed, syncDir(dir)
}

// RepairDir makes a damaged graph directory loadable again without
// destroying committed data or evidence:
//
//   - stale *.tmp files from aborted saves are removed;
//   - layout files on disk that a valid manifest never committed
//     (orphans) are removed;
//   - WAL segments are healed by a permissive open — torn tails
//     truncated, torn-header segments removed — and segments the
//     manifest already subsumes are retired;
//   - unexpected litter (files the storage layer never writes) is
//     moved into the quarantine/ subdirectory, not deleted.
//
// The names of removed, repaired or quarantined files are returned.
func RepairDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: repair %s: %w", dir, err)
	}
	var removed []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return removed, fmt.Errorf("storage: repair %s: %w", dir, err)
			}
			removed = append(removed, e.Name())
		}
	}
	man, manErr := ReadManifest(dir)
	if manErr == nil && man != nil {
		orphans, err := removeUnlisted(dir, man, nil, nil)
		removed = append(removed, orphans...)
		if err != nil {
			return removed, fmt.Errorf("storage: repair %s: %w", dir, err)
		}
	}

	// Heal the WAL: a permissive open truncates torn tails and removes
	// torn-header segments; then segments the manifest fully subsumes
	// are retired. Mid-log corruption is left in place (permissive
	// loads skip it, and deleting it would be silent data loss) — the
	// report from VerifyDir is the operator's signal.
	if wal.Exists(dir) {
		l, rec, werr := wal.Open(dir, wal.Options{Permissive: true})
		if werr != nil {
			return removed, fmt.Errorf("storage: repair %s: %w", dir, werr)
		}
		if rec.TruncatedBytes > 0 {
			removed = append(removed, fmt.Sprintf("wal: truncated %d torn-tail bytes", rec.TruncatedBytes))
		}
		for _, name := range rec.RemovedSegments {
			removed = append(removed, name)
		}
		if manErr == nil && man != nil && man.WALSeq > 0 {
			if l.LastSeq() <= man.WALSeq {
				// Even the active segment is fully subsumed (a crash
				// between a compaction's commit and its retirement step);
				// rotate so it stops being active and can retire too.
				if rerr := l.Rotate(); rerr != nil {
					l.Close()
					return removed, fmt.Errorf("storage: repair %s: %w", dir, rerr)
				}
			}
			retired, rerr := l.RetireThrough(man.WALSeq)
			if rerr != nil {
				l.Close()
				return removed, fmt.Errorf("storage: repair %s: %w", dir, rerr)
			}
			if retired > 0 {
				removed = append(removed, fmt.Sprintf("wal: retired %d subsumed segment(s)", retired))
			}
		}
		if err := l.Close(); err != nil {
			return removed, fmt.Errorf("storage: repair %s: %w", dir, err)
		}
	}

	// Quarantine unexpected litter: rename, never delete.
	for _, e := range entries {
		name := e.Name()
		if expectedFile(name) || strings.HasSuffix(name, tmpSuffix) {
			continue
		}
		qdir := filepath.Join(dir, QuarantineDir)
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			return removed, fmt.Errorf("storage: repair %s: %w", dir, err)
		}
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(qdir, name)); err != nil {
			return removed, fmt.Errorf("storage: repair %s: %w", dir, err)
		}
		removed = append(removed, name+" (quarantined)")
	}

	sort.Strings(removed)
	if len(removed) > 0 {
		obsRecoveredSaves.Add(1)
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
