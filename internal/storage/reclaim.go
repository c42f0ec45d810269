package storage

import (
	"os"
	"sync"

	"repro/internal/obs"
)

var (
	// obsReclaimHeld counts the files a Reclaimer held: replacements
	// and deletes whose block frees it took off the writer's path.
	obsReclaimHeld = obs.Default().Counter("storage.reclaim_held")
	// obsReclaimHeldBytes is the disk space held files take now, which
	// no name in their directories shows.
	obsReclaimHeldBytes = obs.Default().Gauge("storage.reclaim_held_bytes")
)

// A Reclaimer releases what it holds once the files number maxHeld or
// take maxHeldBytes of disk: that bounds the descriptors it keeps open
// and the space it keeps allocated.
const (
	maxHeld      = 32
	maxHeldBytes = 64 << 20
)

// A Reclaimer moves the freeing of replaced files' disk blocks off a
// writer's path. Renaming a new file over an old one, or removing a
// file, frees the old blocks inside that call; on a file system that
// discards freed blocks as it frees them this costs tens of
// milliseconds a file, and a later fsync that commits metadata waits
// for it. An epoch compaction replaces five files and retires a log
// segment, all inside the append that triggered it.
//
// Hold opens a file just before it is replaced or removed, so the
// rename or remove only drops the name: the directory is exactly what
// it would be without the hold, and a crash leaves the same files (the
// file system reclaims an orphaned inode when it mounts). The held
// files keep their disk space until they are closed, which frees it:
// Settle closes them, on a goroutine of its own, once they reach either
// bound (Compact settles when it returns), and Close closes them all
// and waits for the closes under way. So a burst of compactions frees
// nothing under the next one's fsyncs, and the frees are paid in a few
// batches or at Close.
//
// The zero Reclaimer is ready to use. A nil *Reclaimer holds nothing:
// the rename or remove frees the blocks itself. The methods are safe for
// concurrent use.
type Reclaimer struct {
	mu        sync.Mutex
	held      []*os.File
	bytes     int64
	closed    bool
	releasing sync.WaitGroup
}

// Hold keeps the file at path open, if it exists, so that replacing or
// removing it does not free its blocks until the Reclaimer releases it.
func (r *Reclaimer) Hold(path string) {
	if r == nil {
		return
	}
	f, err := os.Open(path)
	if err != nil {
		return // nothing to hold: the replacement frees nothing either
	}
	var size int64
	if info, err := f.Stat(); err == nil {
		size = info.Size()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		f.Close()
		return
	}
	r.held = append(r.held, f)
	r.bytes += size
	obsReclaimHeld.Add(1)
	obsReclaimHeldBytes.Add(size)
}

// Settle closes the held files on a goroutine of its own if they number
// maxHeld or take maxHeldBytes.
func (r *Reclaimer) Settle() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.held) < maxHeld && r.bytes < maxHeldBytes {
		return
	}
	fs, n := r.held, r.bytes
	r.held, r.bytes = nil, 0
	r.releasing.Add(1)
	go func() {
		defer r.releasing.Done()
		release(fs, n)
	}()
}

// Close closes every held file, waits for the closes Settle started,
// and makes later Holds no-ops.
func (r *Reclaimer) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.closed = true
	fs, n := r.held, r.bytes
	r.held, r.bytes = nil, 0
	r.mu.Unlock()
	release(fs, n)
	r.releasing.Wait()
}

// release closes fs, which hold n bytes.
func release(fs []*os.File, n int64) {
	for _, f := range fs {
		f.Close()
	}
	obsReclaimHeldBytes.Add(-n)
}
