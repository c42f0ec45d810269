package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed call from the benchmark into a layer (or one
// whole operation, for root spans). Spans are recorded by the
// benchmark's own code, around the calls; the program under test is not
// instrumented.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an operation's root span
	Op     int64  `json:"op"`     // shared by every span of one operation
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the recorder: a hit-path workload completes hundreds
// of thousands of operations in a window, and the first 60k spans
// describe it as well as all of them would.
const maxSpans = 60000

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run calls the same code.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)} }

// begin opens a span and returns its id, or -1 when nothing is recorded.
func (t *tracer) begin(parent int32, op int64, name string) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// closed returns the spans whose end was recorded.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfStat aggregates one span name.
type selfStat struct {
	Name   string
	Count  int
	SelfNS int64
	WallNS int64
}

// selfTimes computes, per span name, the summed self time: a span's
// duration minus the part of its interval its direct children cover
// (overlapping children are counted once). Children whose parent was
// dropped count as roots.
func selfTimes(spans []span) []selfStat {
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	present := make(map[int32]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent >= 0 && present[s.Parent] {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	agg := make(map[string]*selfStat)
	for _, s := range spans {
		covered := int64(0)
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].s < ks[j].s })
		cur := s.Start
		for _, k := range ks {
			from, to := max(k.s, cur), min(k.e, s.End)
			if to > from {
				covered += to - from
				cur = to
			}
		}
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Count++
		st.WallNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - covered
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// layerOf is the span name's layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// countOps is the number of distinct operations among the spans.
func countOps(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Parent < 0 {
			n++
		}
	}
	return n
}

// writeTrace stores the spans of one traced run.
func writeTrace(path, workload string, seed int64, t *tracer) error {
	spans := t.closed()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int64  `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.dropped, spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
