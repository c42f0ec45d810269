package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// The wire model. Zoom specs travel as JSON strings in the paper's own
// textual syntax ("3 months", "at least 0.5", "last") and are parsed
// into validated core specs. The canonical fingerprint of a request is
// rebuilt from the PARSED forms (WindowSpec.String, Quantifier.String,
// …), so two spellings of the same query — "3 months" vs "3 units",
// "AT LEAST 0.5" vs "at least 0.5" — share one cache entry.

// StepRequest is one operator of a pipeline request. Op selects which
// fields apply: "azoom" (GroupBy, NewType, Count), "wzoom" (Window,
// VQuant, EQuant, VResolve, EResolve), "switch" (Rep) or "range"
// (Start, End).
type StepRequest struct {
	Op string `json:"op"`

	// aZoom^T fields.
	GroupBy string `json:"groupBy,omitempty"`
	NewType string `json:"newType,omitempty"`
	Count   string `json:"count,omitempty"`

	// wZoom^T fields.
	Window   string `json:"window,omitempty"`
	VQuant   string `json:"vquant,omitempty"`
	EQuant   string `json:"equant,omitempty"`
	VResolve string `json:"vresolve,omitempty"`
	EResolve string `json:"eresolve,omitempty"`

	// Representation switch field.
	Rep string `json:"rep,omitempty"`

	// Range fields: restrict the pipeline to states overlapping
	// [Start, End), clipped. A range step also declares the request's
	// time dependency, which is what lets live appends invalidate the
	// cache surgically (see the append handler): a cached result whose
	// range does not overlap an appended delta stays resident.
	Start int64 `json:"start,omitempty"`
	End   int64 `json:"end,omitempty"`
}

// PipelineRequest asks for a chain of operators over a served graph.
type PipelineRequest struct {
	Graph string        `json:"graph"`
	Steps []StepRequest `json:"steps"`
}

// AZoomRequest is the single-operator aZoom^T endpoint's body.
type AZoomRequest struct {
	Graph   string `json:"graph"`
	GroupBy string `json:"groupBy"`
	NewType string `json:"newType,omitempty"`
	Count   string `json:"count,omitempty"`
}

// WZoomRequest is the single-operator wZoom^T endpoint's body.
type WZoomRequest struct {
	Graph    string `json:"graph"`
	Window   string `json:"window"`
	VQuant   string `json:"vquant,omitempty"`
	EQuant   string `json:"equant,omitempty"`
	VResolve string `json:"vresolve,omitempty"`
	EResolve string `json:"eresolve,omitempty"`
}

// step is one parsed operator as plain data: norm, the request in
// normal form — every field as its parsed value prints it, defaults
// filled in, so parsing a printed norm gives the same step — and what
// parsing produced for its op: the aZoom spec (az), the wZoom spec
// (wz), the switch's target representation (rep) or the range (iv).
type step struct {
	norm StepRequest
	az   *core.AZoomSpec
	wz   *core.WZoomSpec
	rep  core.Representation
	iv   temporal.Interval
}

// apply runs the step on g. A range clips states to [start, end)
// exactly like a storage-level range load, so its output provably
// depends only on that window.
func (s step) apply(g core.TGraph) (core.TGraph, error) {
	switch s.norm.Op {
	case "azoom":
		return g.AZoom(*s.az)
	case "wzoom":
		return g.WZoom(*s.wz)
	case "switch":
		return core.Convert(g, s.rep)
	default:
		return core.Trim(g, s.iv)
	}
}

// appendCanon appends the step's cache-key fragment, rendered from
// norm. aZoom's free-text fields are quoted: unquoted, groupBy
// "a,type=b" with newType "c" and groupBy "a" with newType "b,type=c"
// rendered alike and shared one cache entry.
func (s step) appendCanon(dst []byte) []byte {
	n := s.norm
	switch n.Op {
	case "azoom":
		return fmt.Appendf(dst, "azoom(by=%q,type=%q,count=%q)", n.GroupBy, n.NewType, n.Count)
	case "wzoom":
		return fmt.Appendf(dst, "wzoom(w=%s,vq=%s,eq=%s,vr=%s,er=%s)", n.Window, n.VQuant, n.EQuant, n.VResolve, n.EResolve)
	case "switch":
		return append(append(append(dst, "switch("...), n.Rep...), ')')
	default:
		return fmt.Appendf(dst, "range(%d,%d)", n.Start, n.End)
	}
}

// parseStep validates one operator request and parses it into a step;
// a step's normal form prints its parsed values (WindowSpec.String,
// Quantifier.String, …).
func parseStep(r StepRequest) (step, error) {
	switch strings.ToLower(r.Op) {
	case "azoom":
		if r.GroupBy == "" {
			return step{}, fmt.Errorf("azoom: groupBy is required")
		}
		if r.NewType == "" {
			r.NewType = r.GroupBy + "-group"
		}
		var aggs []props.AggField
		if r.Count != "" {
			aggs = append(aggs, props.Count(r.Count))
		}
		spec := core.GroupByProperty(r.GroupBy, r.NewType, aggs...)
		return step{norm: StepRequest{Op: "azoom", GroupBy: r.GroupBy, NewType: r.NewType, Count: r.Count}, az: &spec}, nil
	case "wzoom":
		if r.Window == "" {
			return step{}, fmt.Errorf("wzoom: window is required")
		}
		w, err := temporal.ParseWindowSpec(r.Window)
		if err != nil {
			return step{}, err
		}
		parseQ := func(s string) (temporal.Quantifier, error) {
			if s == "" {
				return temporal.Exists(), nil
			}
			return temporal.ParseQuantifier(s)
		}
		vq, err := parseQ(r.VQuant)
		if err != nil {
			return step{}, err
		}
		eq, err := parseQ(r.EQuant)
		if err != nil {
			return step{}, err
		}
		vr, err := props.ParseResolver(r.VResolve)
		if err != nil {
			return step{}, err
		}
		er, err := props.ParseResolver(r.EResolve)
		if err != nil {
			return step{}, err
		}
		spec := core.WZoomSpec{
			Window: w, VQuant: vq, EQuant: eq,
			VResolve: props.ResolveSpec{Default: vr},
			EResolve: props.ResolveSpec{Default: er},
		}
		norm := StepRequest{Op: "wzoom", Window: w.String(), VQuant: vq.String(), EQuant: eq.String(), VResolve: vr.String(), EResolve: er.String()}
		return step{norm: norm, wz: &spec}, nil
	case "switch":
		rep, err := parseRep(r.Rep)
		if err != nil {
			return step{}, err
		}
		return step{norm: StepRequest{Op: "switch", Rep: rep.String()}, rep: rep}, nil
	case "range":
		if r.End <= r.Start {
			return step{}, fmt.Errorf("range: want start < end, got [%d, %d)", r.Start, r.End)
		}
		iv := temporal.MustInterval(temporal.Time(r.Start), temporal.Time(r.End))
		return step{norm: StepRequest{Op: "range", Start: r.Start, End: r.End}, iv: iv}, nil
	default:
		return step{}, fmt.Errorf("unknown op %q (want azoom|wzoom|switch|range)", r.Op)
	}
}

// parseRep maps the wire names to representations.
func parseRep(s string) (core.Representation, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ve":
		return core.RepVE, nil
	case "rg":
		return core.RepRG, nil
	case "og":
		return core.RepOG, nil
	case "ogc":
		return core.RepOGC, nil
	default:
		return 0, fmt.Errorf("unknown representation %q (want ve|rg|og|ogc)", s)
	}
}

// parseSteps validates a pipeline's steps.
func parseSteps(reqs []StepRequest) (chain, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("pipeline: at least one step is required")
	}
	out := make(chain, 0, len(reqs))
	for i, r := range reqs {
		st, err := parseStep(r)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// errTrailing rejects a request body that goes on after its JSON value.
var errTrailing = errors.New("request body: data after the JSON value")

// decodeJSON decodes exactly one JSON value from rd into v: unknown
// fields are errors, and so is anything but whitespace after the value
// — a second concatenated value would otherwise be dropped unread.
func decodeJSON(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailing
	}
	return nil
}

// parseBody decodes the body of the named query endpoint into its graph
// and step requests and parses those: an /v1/azoom or /v1/wzoom body is
// a one-step chain, reported without a step number.
func parseBody(endpoint string, body []byte) (string, chain, error) {
	var req PipelineRequest
	var err error
	switch endpoint {
	case "azoom":
		var r AZoomRequest
		err = decodeJSON(bytes.NewReader(body), &r)
		req = PipelineRequest{Graph: r.Graph, Steps: []StepRequest{{Op: "azoom", GroupBy: r.GroupBy, NewType: r.NewType, Count: r.Count}}}
	case "wzoom":
		var r WZoomRequest
		err = decodeJSON(bytes.NewReader(body), &r)
		req = PipelineRequest{Graph: r.Graph, Steps: []StepRequest{{Op: "wzoom", Window: r.Window, VQuant: r.VQuant, EQuant: r.EQuant, VResolve: r.VResolve, EResolve: r.EResolve}}}
	default:
		err = decodeJSON(bytes.NewReader(body), &req)
	}
	if err != nil {
		return "", nil, err
	}
	steps, err := parseSteps(req.Steps)
	if err != nil {
		if endpoint != "pipeline" {
			err = errors.Unwrap(err)
		}
		return "", nil, err
	}
	return req.Graph, steps, nil
}

// chain is a parsed operator chain, applied in order.
type chain []step

// apply runs the chain on g.
func (c chain) apply(g core.TGraph) (core.TGraph, error) {
	for _, s := range c {
		var err error
		if g, err = s.apply(g); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// canonical joins the step fingerprints into the operator-chain part of
// the cache key.
func (c chain) canonical() string {
	var b []byte
	for i, s := range c {
		if i > 0 {
			b = append(b, ';')
		}
		b = s.appendCanon(b)
	}
	return string(b)
}

// depends is the time interval the chain's result can depend on: the
// intersection of the windows of its range steps before the first
// wZoom, or the zero interval (meaning "everything") when there are
// none. aZoom, switch and range are pointwise in time, so a range after
// them still bounds the chain; a wZoom is not — its unit windows start
// at the lifetime start and the last one is clamped at the lifetime
// end — so a range after it bounds nothing.
func (c chain) depends() temporal.Interval {
	var dep temporal.Interval
	for _, s := range c {
		if s.wz != nil {
			break
		}
		if s.iv.IsEmpty() {
			continue
		}
		if dep.IsEmpty() {
			dep = s.iv
		} else {
			dep = dep.Intersect(s.iv)
		}
	}
	return dep
}

// rangeTag names the chain's dependency interval as a cache-key
// segment, so an append can invalidate exactly the tags its deltas
// overlap via prefix invalidation. Chains without a range step share
// the "full" tag, which every append invalidates.
func (c chain) rangeTag() string {
	dep := c.depends()
	if dep.IsEmpty() {
		return "full"
	}
	return fmt.Sprintf("r%d:%d", dep.Start, dep.End)
}

// viewable reports whether an incrementally maintained view can serve
// the chain: a single azoom or wzoom step, so no range restriction (the
// "full" tag — range-restricted chains already enjoy surgical
// invalidation) and nothing a single view could not maintain.
func (c chain) viewable() bool {
	return len(c) == 1 && (c[0].az != nil || c[0].wz != nil)
}

// The ingestion wire model.

// DeltaJSON is one vertex or edge state to append. Props values are
// auto-typed the same way CSV import types cells (int, float, bool,
// then string).
type DeltaJSON struct {
	Kind  string            `json:"kind"` // "vertex" | "edge"
	ID    int64             `json:"id"`
	Src   int64             `json:"src,omitempty"`
	Dst   int64             `json:"dst,omitempty"`
	Start int64             `json:"start"`
	End   int64             `json:"end"`
	Props map[string]string `json:"props,omitempty"`
}

// AppendRequest asks to append deltas to a served graph's write-ahead
// log. The request is acked only after the records are fsynced.
type AppendRequest struct {
	Graph  string      `json:"graph"`
	Deltas []DeltaJSON `json:"deltas"`
}

// AppendResponse reports the sequence range the deltas were logged at,
// how many cached results the append invalidated (results whose
// declared time range does not overlap the deltas stay resident), and
// how many cache entries incremental view maintenance patched in place
// (those serve the post-append result without a cold recompute).
type AppendResponse struct {
	FirstSeq    uint64 `json:"firstSeq"`
	LastSeq     uint64 `json:"lastSeq"`
	Invalidated int    `json:"invalidated"`
	Patched     int    `json:"patched,omitempty"`
}

// parseDeltas validates and converts the wire deltas.
func parseDeltas(reqs []DeltaJSON) ([]wal.Delta, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("append: at least one delta is required")
	}
	out := make([]wal.Delta, 0, len(reqs))
	for i, d := range reqs {
		if d.End <= d.Start {
			return nil, fmt.Errorf("delta %d: want start < end, got [%d, %d)", i, d.Start, d.End)
		}
		wd := wal.Delta{
			ID:       d.ID,
			Interval: temporal.MustInterval(temporal.Time(d.Start), temporal.Time(d.End)),
		}
		switch strings.ToLower(d.Kind) {
		case "vertex":
			wd.Kind = wal.KindVertex
			if d.Src != 0 || d.Dst != 0 {
				return nil, fmt.Errorf("delta %d: vertex delta carries src/dst", i)
			}
		case "edge":
			wd.Kind = wal.KindEdge
			wd.Src, wd.Dst = d.Src, d.Dst
		default:
			return nil, fmt.Errorf("delta %d: unknown kind %q (want vertex|edge)", i, d.Kind)
		}
		if len(d.Props) > 0 {
			var b props.Builder
			b.Grow(len(d.Props))
			for k, v := range d.Props {
				if k == "" {
					return nil, fmt.Errorf("delta %d: empty property name", i)
				}
				b.Set(k, storage.ParseValue(v))
			}
			wd.Props = b.Build()
		}
		out = append(out, wd)
	}
	return out, nil
}

// deltaSpan is the smallest interval covering every delta — the append's
// footprint for surgical cache invalidation.
func deltaSpan(ds []wal.Delta) temporal.Interval {
	span := ds[0].Interval
	for _, d := range ds[1:] {
		span = span.Union(d.Interval)
	}
	return span
}

// The response model: flat coalesced states, deterministically ordered
// so equal results are equal bytes.

// StateJSON is one vertex or edge state on the wire. Src/Dst are only
// set for edges.
type StateJSON struct {
	ID    int64             `json:"id"`
	Src   int64             `json:"src,omitempty"`
	Dst   int64             `json:"dst,omitempty"`
	Start int64             `json:"start"`
	End   int64             `json:"end"`
	Props map[string]string `json:"props,omitempty"`
}

// GraphJSON is a zoom result on the wire.
type GraphJSON struct {
	Rep      string      `json:"rep"`
	Lifetime [2]int64    `json:"lifetime"`
	Vertices []StateJSON `json:"vertices"`
	Edges    []StateJSON `json:"edges"`
}

// encodeGraph renders a result graph as deterministic JSON bytes: what
// g.Coalesce() would report, sorted and folded by core.CoalescedStates
// without a dataflow job, written by encodeStates — so recomputing the
// same query yields identical bytes. It is the one encoder behind the
// cold path, the sharded path and patched views.
func encodeGraph(g core.TGraph) []byte {
	rep, life, vs, es := core.CoalescedStates(g)
	return encodeStates(rep.String(), life, vs, es)
}

// encoder is the reusable scratch of one encodeStates call: the output
// buffer and the property fields of the state being written.
type encoder struct {
	buf    []byte
	fields []propField
}

type propField struct {
	name string
	v    props.Value
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encodeStates writes the wire form of a result — byte for byte what
// json.Marshal(GraphJSON{...}) produces — straight from the tuples, in
// the order they arrive: by (id, src, dst, start, end), the one sort of
// a response, which core.CoalescedStates and core.SortedCoalesced run.
// Fields in StateJSON's order with src, dst and props omitted
// when zero or empty, property keys ordered by name, every property
// value as a JSON string, strings escaped as encoding/json escapes
// them. The body is sized exactly (cap == len), so a cache holding it
// retains no slack.
func encodeStates(rep string, life temporal.Interval, vs []core.VertexTuple, es []core.EdgeTuple) []byte {
	e := encoders.Get().(*encoder)
	// A state with a few properties takes about 128 bytes; a buffer
	// fresh from the pool then grows once, not by doubling.
	b := append(slices.Grow(e.buf[:0], 128*(len(vs)+len(es))), `{"rep":`...)
	b = appendJSONString(b, rep)
	b = append(b, `,"lifetime":[`...)
	b = strconv.AppendInt(b, int64(life.Start), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(life.End), 10)
	b = append(b, `],"vertices":[`...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = e.appendState(b, int64(v.ID), 0, 0, v.Interval, v.Props)
	}
	b = append(b, `],"edges":[`...)
	for i, t := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = e.appendState(b, int64(t.ID), int64(t.Src), int64(t.Dst), t.Interval, t.Props)
	}
	b = append(b, `]}`...)
	body := make([]byte, len(b))
	copy(body, b)
	e.buf = b
	clear(e.fields[:cap(e.fields)]) // keep no property strings alive from the pool
	encoders.Put(e)
	return body
}

// appendState writes one StateJSON object.
func (e *encoder) appendState(b []byte, id, src, dst int64, iv temporal.Interval, p props.Props) []byte {
	b = strconv.AppendInt(append(b, `{"id":`...), id, 10)
	if src != 0 {
		b = strconv.AppendInt(append(b, `,"src":`...), src, 10)
	}
	if dst != 0 {
		b = strconv.AppendInt(append(b, `,"dst":`...), dst, 10)
	}
	b = strconv.AppendInt(append(b, `,"start":`...), int64(iv.Start), 10)
	b = strconv.AppendInt(append(b, `,"end":`...), int64(iv.End), 10)
	if p.Len() == 0 {
		return append(b, '}')
	}
	// Props iterates in interned-key order; the wire orders keys by
	// name. Insertion sort: property sets hold a handful of fields.
	fields := e.fields[:0]
	p.Range(func(k props.Key, v props.Value) bool {
		f := propField{k.Name(), v}
		j := len(fields)
		fields = append(fields, f)
		for ; j > 0 && fields[j-1].name > f.name; j-- {
			fields[j] = fields[j-1]
		}
		fields[j] = f
		return true
	})
	e.fields = fields
	b = append(b, `,"props":{`...)
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendJSONString(b, f.name), ':')
		if s, ok := f.v.AsString(); ok {
			b = appendJSONString(b, s)
		} else {
			var text [32]byte
			b = appendJSONString(b, f.v.AppendTo(text[:0]))
		}
	}
	return append(b, '}', '}')
}

// appendJSONString appends src as a JSON string literal, escaped the
// way encoding/json's Marshal escapes it: the quote, the backslash and
// control bytes; <, > and & as \u00XX (Marshal's HTML-safe default);
// U+2028 and U+2029; and each byte of invalid UTF-8 as \ufffd.
func appendJSONString[S []byte | string](dst []byte, src S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if c := src[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode from a copy of at most one rune's bytes, so that the
		// conversion of a []byte source stays on the stack.
		r, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, src[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, src[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, src[start:]...), '"')
}

// clipBody returns body, a result encodeStates wrote, as encoding
// Trim(result, r) would write it: each state's interval intersected with
// r, the states left empty dropped, the lifetime recomputed from those
// kept — in one pass and one exactly sized allocation. It declines a
// body cut short or holding an escaped string, and one in which two
// states of an entity would overlap, or meet with equal properties,
// after the clip: a recompute's fold would not list them as they are.
// Only a graph that breaks Definition 2.1 has such states.
func clipBody(body []byte, r temporal.Interval) ([]byte, bool) {
	s := scanner{b: body}
	s.lit(`{"rep":`)
	rep := s.str()
	s.lit(`,"lifetime":[`)
	s.int()
	s.lit(",")
	s.int()
	s.lit(`],"vertices":[`)
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	life := temporal.Empty
	b := s.states(e.buf[:0], r, &life)
	s.lit(`],"edges":[`)
	b = append(s.states(append(b, `],"edges":[`...), r, &life), "]}"...)
	s.lit("]}")
	// The scratch holds the states, then the head the body puts first.
	n := len(b)
	b = strconv.AppendInt(append(append(append(b, `{"rep":`...), rep...), `,"lifetime":[`...), int64(life.Start), 10)
	e.buf = append(strconv.AppendInt(append(b, ','), int64(life.End), 10), `],"vertices":[`...)
	if s.bad || len(s.b) > 0 {
		return nil, false
	}
	clipped := make([]byte, len(e.buf))
	copy(clipped[copy(clipped, e.buf[n:]):], e.buf[:n])
	return clipped, true
}

// scanner reads a body token by token; at a byte it does not expect it
// sets bad and reads no more.
type scanner struct {
	b   []byte
	bad bool
}

func (s *scanner) fail() { s.b, s.bad = nil, true }

// opt consumes lit if it comes next and reports whether it did.
func (s *scanner) opt(lit string) bool {
	ok := len(s.b) >= len(lit) && string(s.b[:len(lit)]) == lit
	if ok {
		s.b = s.b[len(lit):]
	}
	return ok
}

func (s *scanner) lit(lit string) {
	if !s.opt(lit) {
		s.fail()
	}
}

// int consumes a decimal integer.
func (s *scanner) int() int64 {
	neg := s.opt("-")
	i, u := 0, uint64(0)
	for ; i < len(s.b) && s.b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(s.b[i]-'0')
	}
	if i == 0 {
		s.fail()
	}
	s.b = s.b[i:]
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// str consumes a string literal holding no escape and returns it, quotes
// included.
func (s *scanner) str() []byte {
	if len(s.b) > 0 && s.b[0] == '"' {
		if i := bytes.IndexByte(s.b[1:], '"') + 2; i > 1 && bytes.IndexByte(s.b[:i], '\\') < 0 {
			str := s.b[:i]
			s.b = s.b[i:]
			return str
		}
	}
	s.fail()
	return nil
}

// states copies one state list, up to its closing bracket, onto out,
// each state clipped to r, and widens life by the states it keeps.
func (s *scanner) states(out []byte, r temporal.Interval, life *temporal.Interval) []byte {
	var prevKey, prevRest []byte
	var prevEnd temporal.Time
	for i := 0; !s.bad && (len(s.b) == 0 || s.b[0] != ']'); i++ {
		if i > 0 {
			s.lit(",")
		}
		key := s.b
		s.lit(`{"id":`)
		s.int()
		for _, f := range [2]string{`,"src":`, `,"dst":`} {
			if s.opt(f) {
				s.int()
			}
		}
		key = key[:len(key)-len(s.b)]
		s.lit(`,"start":`)
		start := temporal.Time(s.int())
		s.lit(`,"end":`)
		iv := temporal.Interval{Start: start, End: temporal.Time(s.int())}.Intersect(r)
		rest := s.b
		if s.opt(`,"props":{`) {
			for k := 0; k == 0 || s.opt(","); k++ {
				s.str()
				s.lit(":")
				s.str()
			}
			s.lit("}")
		}
		s.lit("}")
		rest = rest[:len(rest)-len(s.b)]
		if s.bad || iv.IsEmpty() {
			continue
		}
		if bytes.Equal(key, prevKey) && (prevEnd > iv.Start || prevEnd == iv.Start && bytes.Equal(rest, prevRest)) {
			s.fail()
			break
		}
		if len(out) > 0 && out[len(out)-1] != '[' {
			out = append(out, ',')
		}
		out = strconv.AppendInt(append(append(out, key...), `,"start":`...), int64(iv.Start), 10)
		out = append(strconv.AppendInt(append(out, `,"end":`...), int64(iv.End), 10), rest...)
		*life = life.Union(iv)
		prevKey, prevRest, prevEnd = key, rest, iv.End
	}
	return out
}
