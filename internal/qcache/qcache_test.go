package qcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyCanonical(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing failed: shifted parts collide")
	}
	if Key("x") != Key("x") {
		t.Error("key not deterministic")
	}
	if Key() == Key("") {
		t.Error("zero parts and one empty part must differ")
	}
}

// TestKeyGolden pins Key's output: the digests below were produced by
// the streaming sha256.New implementation AppendKey replaced, so cache
// keys (and anything that persisted one) keep their meaning.
func TestKeyGolden(t *testing.T) {
	cases := []struct {
		parts []string
		want  string
	}{
		{[]string{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{[]string{""}, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{[]string{"ab", "c"}, "601d5476e2ccfe2c87a2bba7a322659734a05749d5b5aa781f513e4912db0d5f"},
		{[]string{"a", "bc"}, "3fafa1cf2f19a7c1129beb20cf0983f73a489a221fc0dd2f16d1be292d089205"},
		{[]string{"manifest:2:7:0badf00d", "wzoom(w=3 units,vq=exists,eq=exists,vr=any,er=any)"}, "6f85eff36ee9b140ca32aeddc88a8a16f4c084e8753cda33253b744c84d8cbc3"},
		{[]string{"stamp", "wzoom(w=3 units)"}, "c157fd73ae108c293d3c43af3bc99d7c9edb8a462b3f13adc31b6da79770d00d"},
		{[]string{"日本\x00\xff", "azoom(by=school,type=school-group,count=)", "x"}, "486e64bc5337e355847d781c4b046a48bb2b2a19679b8af0a507d7a2ec689d35"},
	}
	for _, c := range cases {
		if got := Key(c.parts...); got != c.want {
			t.Errorf("Key(%q) = %s, want %s", c.parts, got, c.want)
		}
		if got := string(AppendKey([]byte("pre|"), c.parts...)); got != "pre|"+c.want {
			t.Errorf("AppendKey(pre|, %q) = %s, want pre|%s", c.parts, got, c.want)
		}
	}
	// Inputs longer than AppendKey's stack buffer take the growing path.
	long := strings.Repeat("range(0,100);", 60)
	h := sha256.New()
	for _, p := range []string{"stamp", long} {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	if got, want := Key("stamp", long), hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Key over a %d-byte part = %s, want %s", len(long), got, want)
	}
	var dst [128]byte
	if allocs := testing.AllocsPerRun(20, func() { AppendKey(dst[:0], "manifest:2:7:0badf00d", "wzoom(w=3 units)") }); allocs != 0 {
		t.Errorf("AppendKey into a stack buffer: %v allocs, want 0", allocs)
	}
}

func TestDoMissThenHit(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	compute := func() (any, int64, error) {
		calls++
		return "result", 6, nil
	}
	v, out, err := c.Do("k", compute)
	if err != nil || v != "result" || out != Miss {
		t.Fatalf("first Do = %v, %v, %v; want result, miss, nil", v, out, err)
	}
	v, out, err = c.Do("k", compute)
	if err != nil || v != "result" || out != Hit {
		t.Fatalf("second Do = %v, %v, %v; want result, hit, nil", v, out, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	if got, ok := c.Get("k"); !ok || got != "result" {
		t.Errorf("Get = %v, %v", got, ok)
	}
}

// N concurrent identical requests execute the computation exactly once:
// one caller reports Miss, the rest Shared, and every caller gets the
// value.
func TestSingleflightDedup(t *testing.T) {
	c := New(1 << 20)
	const n = 24
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[Outcome]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do("same", func() (any, int64, error) {
				calls.Add(1)
				<-gate // hold every other caller in the flight
				return 42, 8, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
			mu.Lock()
			outcomes[out]++
			mu.Unlock()
		}()
	}
	// Wait until the one computation is in flight, then release it. The
	// remaining goroutines either joined the flight (Shared) or arrive
	// after completion (Hit); none may compute again.
	for calls.Load() == 0 {
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", calls.Load())
	}
	if outcomes[Miss] != 1 {
		t.Errorf("outcomes = %v, want exactly one miss", outcomes)
	}
	if outcomes[Shared]+outcomes[Hit] != n-1 {
		t.Errorf("outcomes = %v, want %d shared+hit", outcomes, n-1)
	}
}

func TestErrorsAreSharedButNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	fail := func() (any, int64, error) {
		calls++
		return nil, 0, boom
	}
	if _, out, err := c.Do("k", fail); !errors.Is(err, boom) || out != Miss {
		t.Fatalf("Do = %v, %v", out, err)
	}
	// The failure was not cached: the next Do computes again.
	if _, out, err := c.Do("k", fail); !errors.Is(err, boom) || out != Miss {
		t.Fatalf("Do after error = %v, %v", out, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2", calls)
	}
	if c.Len() != 0 {
		t.Errorf("error cached: %d entries", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(30)
	put := func(k string) {
		c.Do(k, func() (any, int64, error) { return k, 10, nil })
	}
	put("a")
	put("b")
	put("c") // full: 30 bytes
	c.Get("a")
	put("d") // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	if c.Bytes() != 30 || c.Len() != 3 {
		t.Errorf("bytes = %d entries = %d, want 30, 3", c.Bytes(), c.Len())
	}
}

func TestOversizedValueNotResident(t *testing.T) {
	c := New(10)
	v, out, err := c.Do("big", func() (any, int64, error) { return "huge", 100, nil })
	if err != nil || v != "huge" || out != Miss {
		t.Fatalf("Do = %v, %v, %v", v, out, err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("oversized value resident: %d entries, %d bytes", c.Len(), c.Bytes())
	}
}

func TestInvalidatePrefix(t *testing.T) {
	c := New(1 << 20)
	for _, k := range []string{"g1|a", "g1|b", "g2|a"} {
		c.Do(k, func() (any, int64, error) { return k, 4, nil })
	}
	if n := c.InvalidatePrefix("g1|"); n != 2 {
		t.Errorf("invalidated %d, want 2", n)
	}
	if _, ok := c.Get("g1|a"); ok {
		t.Error("g1|a survived invalidation")
	}
	if _, ok := c.Get("g2|a"); !ok {
		t.Error("g2|a wrongly invalidated")
	}
	if c.Len() != 1 {
		t.Errorf("entries = %d, want 1", c.Len())
	}
}

func TestPanicWakesSharers(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		c.Do("k", func() (any, int64, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started // the flight is registered before compute runs
	sharerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (any, int64, error) { return "recomputed", 10, nil })
		sharerErr <- err
	}()
	// Let the sharer join the in-flight computation, then trip the
	// panic. If scheduling makes the sharer arrive after the flight is
	// gone it recomputes successfully — also correct; what must never
	// happen is a hang or a surfaced panic on the sharer.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-holderDone
	if err := <-sharerErr; err != nil && !errors.Is(err, ErrComputePanicked) {
		t.Errorf("sharer err = %v, want nil or ErrComputePanicked", err)
	}
}

// Hammer the cache from many goroutines (meaningful under -race).
func TestConcurrentMixedUse(t *testing.T) {
	c := New(200)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := fmt.Sprintf("g%d|%d", j%3, j%17)
				c.Do(k, func() (any, int64, error) { return j, 10, nil })
				c.Get(k)
				if j%50 == 0 {
					c.InvalidatePrefix(fmt.Sprintf("g%d|", i%3))
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Bytes() > 200 {
		t.Errorf("size bound violated: %d bytes", c.Bytes())
	}
}
