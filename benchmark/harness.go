package main

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the percentile is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule and whether at least minBeyond samples lie beyond
// it. An empty sample yields 0, false.
func percentile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// supportedTail lowers q until minBeyond samples lie beyond it and
// returns that percentile with the q it settled on — the "highest
// percentile the sample supports". Samples too small for any tail
// report the median.
func supportedTail(sorted []time.Duration, q float64) (time.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n-int(math.Ceil(q*float64(n))) < minBeyond {
		q = float64(n-minBeyond) / float64(n)
		if q < 0.5 {
			q = 0.5
		}
	}
	d, _ := percentile(sorted, q)
	return d, q
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func p50(d []time.Duration) time.Duration {
	v, _ := percentile(sortDurations(d), 0.5)
	return v
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeN runs fn n times and returns the per-call durations.
func timeN(n int, fn func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = time.Since(start)
	}
	return out
}

// allocsPer reports heap allocations and allocated KiB per call of fn,
// averaged over n calls. It reads the process-wide allocator counters,
// so it is exact only while nothing else runs — the probe phases call
// it from the only active goroutine.
func allocsPer(n int, fn func()) (allocs, kib float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / 1024 / float64(n)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return total, nil
}

// memWriter is an in-memory http.ResponseWriter a client reuses across
// requests, so the harness adds one body copy per response and no
// allocation of its own.
type memWriter struct {
	h    http.Header
	code int
	body []byte
}

func newMemWriter() *memWriter { return &memWriter{h: make(http.Header), code: http.StatusOK} }

func (w *memWriter) Header() http.Header  { return w.h }
func (w *memWriter) WriteHeader(code int) { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *memWriter) reset() {
	clear(w.h)
	w.code = http.StatusOK
	w.body = w.body[:0]
}

// clock is the time source of the open-loop generator; tests substitute
// a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(time.Time)
}

// wallClock is the real clock of one generator goroutine. spun adds up
// the time it spent polling: CPU the generator burned, not the program.
type wallClock struct{ spun time.Duration }

func (*wallClock) Now() time.Time { return time.Now() }

// spinBefore is how long before the wake-up time SleepUntil stops
// sleeping and starts polling the clock. A sleeping goroutine wakes
// 0.6 ms late at the median and 1 ms at the 90th percentile on the
// sandbox, and the open loop would charge that to a request that takes
// 0.2 ms. The reader's interval is 4 ms: polling for longer would keep
// a core busy that the program needs.
const spinBefore = time.Millisecond

func (c *wallClock) SleepUntil(t time.Time) {
	if wait := time.Until(t); wait > spinBefore {
		time.Sleep(wait - spinBefore)
	}
	start := time.Now()
	for time.Now().Before(t) {
	}
	c.spun += time.Since(start)
}

// openLoopResult is what one open-loop generator observed.
type openLoopResult struct {
	// late is send − due per sent request: how far the generator ran
	// behind its schedule.
	late []time.Duration
	// unsent counts scheduled requests dropped because the generator
	// was more than the grace period behind.
	unsent int
}

// schedule lays out n due times, one per interval. With jitter in
// (0, 0.5) each is moved by a seeded draw from ±jitter × interval: the
// requests keep their order and at least (1 − 2 × jitter) of an
// interval between them, and no longer arrive in step with anything
// periodic inside the program, such as its collector's cycles.
func schedule(n int, interval time.Duration, jitter float64, rng *rand.Rand) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
		if jitter > 0 {
			due[i] += time.Duration((2*rng.Float64() - 1) * jitter * float64(interval))
		}
	}
	return due
}

// openLoop sends one request per entry of due, the i-th at start +
// due[i], from one goroutine: a request is never sent before it is due,
// and when the previous one overran, the next goes out at once. send is
// handed the due time and measures latency from it, so a stall is
// charged to every request it delayed, not only to the one that caused
// it. A request whose turn comes more than grace after its due time is
// dropped and counted as unsent (the backlog a real client would have
// given up on).
func openLoop(clk clock, start time.Time, due []time.Duration, grace time.Duration, send func(i int, due time.Time)) openLoopResult {
	res := openLoopResult{late: make([]time.Duration, 0, len(due))}
	for i, offset := range due {
		at := start.Add(offset)
		now := clk.Now()
		if now.Before(at) {
			clk.SleepUntil(at)
			now = clk.Now()
		}
		if now.Sub(at) > grace {
			res.unsent++
			continue
		}
		res.late = append(res.late, now.Sub(at))
		send(i, at)
	}
	return res
}

// closedLoop runs clients goroutines, each calling op(client, i) back to
// back until the deadline passes.
func closedLoop(clients int, deadline time.Time, op func(client, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
}
