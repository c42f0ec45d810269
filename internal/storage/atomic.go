package storage

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// Durability metrics: fsyncs issued by the write path (file + directory),
// manifest mismatches detected by Load/VerifyDir, and saves recovered
// past an aborted-save state (Permissive loads that succeeded despite a
// torn or mismatched manifest, plus RepairDir runs that removed litter).
var (
	obsFsyncs             = obs.Default().Counter("storage.fsyncs")
	obsManifestMismatches = obs.Default().Counter("storage.manifest_mismatches")
	obsRecoveredSaves     = obs.Default().Counter("storage.recovered_saves")
)

// WriteHook is the write-path fault-injection point (internal/faults
// provides an implementation via Injector.WriteHook). It is called at
// each crash-injection site; a non-nil return aborts the write as if
// the process had crashed at that instant: staged temp files are left
// on disk exactly as a real crash would leave them — no cleanup runs —
// and the error is surfaced wrapped in a crash marker. Real I/O errors,
// by contrast, do trigger temp-file cleanup.
//
// Sites, in the order a single atomic write visits them:
//
//	storage.write.create — before the temp file is created (nothing on disk)
//	storage.write.short  — after the payload is written: the temp file is
//	                       truncated to half its size (a torn write)
//	storage.write.sync   — before fsync (temp file complete but unsynced)
//	storage.write.rename — before the rename into place (temp file
//	                       durable, final name still the old version)
//	storage.write.remove — after a SkipNested save's MANIFEST commit,
//	                       before it removes each old-epoch layout file
type WriteHook func(site string) error

// crashError marks an error injected by a WriteHook: the write path
// skips all cleanup for it, leaving the crash state on disk.
type crashError struct{ err error }

func (e *crashError) Error() string { return fmt.Sprintf("storage: simulated crash: %v", e.err) }
func (e *crashError) Unwrap() error { return e.err }

// isCrash reports whether err carries a simulated-crash marker.
func isCrash(err error) bool {
	var ce *crashError
	return errors.As(err, &ce)
}

// fire evaluates hook at site, wrapping any injected error as a crash.
func (h WriteHook) fire(site string) error {
	if h == nil {
		return nil
	}
	if err := h(site); err != nil {
		return &crashError{err: err}
	}
	return nil
}

// fileSum is the size and whole-file CRC32 accumulated while writing,
// recorded in the directory manifest.
type fileSum struct {
	size int64
	crc  uint32
}

// countingWriter tracks the size and running CRC32 of everything
// written through it.
type countingWriter struct {
	w   io.Writer
	sum fileSum
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum.size += int64(n)
	cw.sum.crc = crc32.Update(cw.sum.crc, crc32.IEEETable, p[:n])
	return n, err
}

// stagedFile is a fully written, fsynced temp file awaiting its rename
// into place.
type stagedFile struct {
	tmp   string
	final string
}

// tmpSuffix marks in-flight files; RepairDir removes strays.
const tmpSuffix = ".tmp"

// writeStaged writes <path>.tmp via write, fsyncs it, and returns the
// staged file plus the payload's size and CRC32. Close and sync errors
// are returned, never swallowed. On a real error the temp file is
// removed; on an injected crash it is left as the crash would leave it.
func writeStaged(path string, hook WriteHook, write func(io.Writer) error) (stagedFile, fileSum, error) {
	tmp := path + tmpSuffix
	if err := hook.fire("storage.write.create"); err != nil {
		return stagedFile{}, fileSum{}, err
	}
	f, err := os.Create(tmp)
	if err != nil {
		return stagedFile{}, fileSum{}, fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	discard := func(err error) (stagedFile, fileSum, error) {
		f.Close()
		if !isCrash(err) {
			os.Remove(tmp)
		}
		return stagedFile{}, fileSum{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	cw := &countingWriter{w: bw}
	if err := write(cw); err != nil {
		return discard(err)
	}
	if err := bw.Flush(); err != nil {
		return discard(fmt.Errorf("storage: write %s: %w", tmp, err))
	}
	if err := hook.fire("storage.write.short"); err != nil {
		// Simulate a torn write: half the payload reached the disk.
		if info, serr := f.Stat(); serr == nil && info.Size() > 0 {
			f.Truncate(info.Size() / 2)
		}
		return discard(err)
	}
	if err := hook.fire("storage.write.sync"); err != nil {
		return discard(err)
	}
	if err := f.Sync(); err != nil {
		return discard(fmt.Errorf("storage: fsync %s: %w", tmp, err))
	}
	obsFsyncs.Add(1)
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return stagedFile{}, fileSum{}, fmt.Errorf("storage: close %s: %w", tmp, err)
	}
	return stagedFile{tmp: tmp, final: path}, cw.sum, nil
}

// commit renames the staged file into place and fsyncs the directory so
// the rename itself is durable.
func (sf stagedFile) commit(hook WriteHook) error {
	if err := hook.fire("storage.write.rename"); err != nil {
		return err
	}
	if err := os.Rename(sf.tmp, sf.final); err != nil {
		os.Remove(sf.tmp)
		return fmt.Errorf("storage: rename %s: %w", sf.tmp, err)
	}
	return syncDir(filepath.Dir(sf.final))
}

// discard removes a staged file that will not be committed (cleanup
// after a real error elsewhere in a multi-file save).
func (sf stagedFile) discard() {
	if sf.tmp != "" {
		os.Remove(sf.tmp)
	}
}

// syncDir fsyncs a directory, making renames within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: fsync dir %s: %w", dir, err)
	}
	obsFsyncs.Add(1)
	return nil
}

// atomicWriteFile writes path atomically: temp file, fsync, rename,
// directory fsync. The file either keeps its previous content or holds
// the complete new payload; no reader ever observes a torn write.
func atomicWriteFile(path string, hook WriteHook, write func(io.Writer) error) (fileSum, error) {
	sf, sum, err := writeStaged(path, hook, write)
	if err != nil {
		return fileSum{}, err
	}
	return sum, sf.commit(hook)
}
