package storage

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/props"
	"repro/internal/temporal"
)

// CSV interchange for TGraph states, so that real datasets can be
// imported into the columnar format. The schema mirrors the VE
// relations:
//
//	vertices: id,start,end,<prop>,<prop>,...
//	edges:    id,src,dst,start,end,<prop>,<prop>,...
//
// Property columns use plain header names; values are decoded as int,
// float, bool, or string (first match wins), and empty cells mean "no
// value for this property in this state". Every state needs a type
// column for the output to be a valid TGraph.

// WriteVerticesCSV writes vertex states as CSV. The property columns
// are the union of all property labels, sorted.
func WriteVerticesCSV(w io.Writer, states []core.VertexTuple) error {
	labels := collectLabels(len(states), func(i int) props.Props { return states[i].Props })
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader(vertexCols, labels)); err != nil {
		return err
	}
	for _, v := range states {
		row := []string{
			strconv.FormatInt(int64(v.ID), 10),
			strconv.FormatInt(int64(v.Interval.Start), 10),
			strconv.FormatInt(int64(v.Interval.End), 10),
		}
		row = appendPropCells(row, v.Props, labels)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteEdgesCSV writes edge states as CSV.
func WriteEdgesCSV(w io.Writer, states []core.EdgeTuple) error {
	labels := collectLabels(len(states), func(i int) props.Props { return states[i].Props })
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader(edgeCols, labels)); err != nil {
		return err
	}
	for _, e := range states {
		row := []string{
			strconv.FormatInt(int64(e.ID), 10),
			strconv.FormatInt(int64(e.Src), 10),
			strconv.FormatInt(int64(e.Dst), 10),
			strconv.FormatInt(int64(e.Interval.Start), 10),
			strconv.FormatInt(int64(e.Interval.End), 10),
		}
		row = appendPropCells(row, e.Props, labels)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func collectLabels(n int, at func(int) props.Props) []string {
	seen := map[string]struct{}{}
	for i := 0; i < n; i++ {
		at(i).Range(func(k props.Key, _ props.Value) bool {
			seen[k.Name()] = struct{}{}
			return true
		})
	}
	labels := make([]string, 0, len(seen))
	for k := range seen {
		labels = append(labels, k)
	}
	// Name-sorted, matching props.Props.Keys ordering, for a stable header.
	sort.Strings(labels)
	return labels
}

// appendPropCells appends one cell per label. A float whose text would
// read back as an int ("1", "-0") gets a ".0", so ReadVerticesCSV and
// ReadEdgesCSV read back the kind that was written.
func appendPropCells(row []string, p props.Props, labels []string) []string {
	for _, k := range labels {
		v, ok := p.Get(k)
		if !ok {
			row = append(row, "")
			continue
		}
		s := v.String()
		if v.Kind() == props.KindFloat && ParseValue(s).Kind() != props.KindFloat {
			s += ".0"
		}
		row = append(row, csvCell(s))
	}
	return row
}

// csvHeader is the header row of fixed columns and property labels.
func csvHeader(fixed, labels []string) []string {
	header := append([]string(nil), fixed...)
	for _, l := range labels {
		header = append(header, csvCell(l))
	}
	return header
}

// csvCell escapes a text cell so that it reads back as written: a CSV
// reader turns every CR LF it reads into LF, even inside quotes, so
// the writer doubles the CR before each LF ("\r\r\n" reads back as
// "\r\n").
func csvCell(s string) string { return strings.ReplaceAll(s, "\r\n", "\r\r\n") }

// vertexCols and edgeCols are the fixed header prefixes of vertices.csv
// and edges.csv.
var (
	vertexCols = []string{"id", "start", "end"}
	edgeCols   = []string{"id", "src", "dst", "start", "end"}
)

// ReadVerticesCSV parses vertex states from CSV.
func ReadVerticesCSV(r io.Reader) ([]core.VertexTuple, error) {
	return collectCSV(r, "vertices.csv", vertexCols, parseVertexRow)
}

// ReadEdgesCSV parses edge states from CSV.
func ReadEdgesCSV(r io.Reader) ([]core.EdgeTuple, error) {
	return collectCSV(r, "edges.csv", edgeCols, parseEdgeRow)
}

// collectCSV is streamCSV gathering every state it parses.
func collectCSV[T any](r io.Reader, name string, fixed []string, parse func(cells, labels []string) (T, error)) ([]T, error) {
	var out []T
	if err := streamCSV(r, fixed, parse, func(t T) error { out = append(out, t); return nil }); err != nil {
		return nil, fmt.Errorf("storage: %s: %w", name, err)
	}
	return out, nil
}

// streamCSV reads one CSV file row by row, never holding it whole: it
// checks the fixed header prefix (the header tail names the property
// columns), parses every data row into a state, and hands it to state.
func streamCSV[T any](r io.Reader, fixed []string, parse func(cells, labels []string) (T, error), state func(T) error) error {
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
		cells, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(cells) != len(header) {
			return fmt.Errorf("row %d has %d cells, header has %d", line, len(cells), len(header))
		}
		t, err := parse(cells, labels)
		if err == nil {
			err = state(t)
		}
		if err != nil {
			return fmt.Errorf("row %d: %w", line, err)
		}
	}
}

// streamCSVDir streams dir's vertices.csv into vertex, then its
// edges.csv, if there is one, into edge.
func streamCSVDir(dir string, vertex func(core.VertexTuple) error, edge func(core.EdgeTuple) error) error {
	vf, err := os.Open(dir + "/vertices.csv")
	if err != nil {
		return err
	}
	defer vf.Close()
	if err := streamCSV(vf, vertexCols, parseVertexRow, vertex); err != nil {
		return fmt.Errorf("vertices.csv: %w", err)
	}
	ef, err := os.Open(dir + "/edges.csv")
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer ef.Close()
	if err := streamCSV(ef, edgeCols, parseEdgeRow, edge); err != nil {
		return fmt.Errorf("edges.csv: %w", err)
	}
	return nil
}

// parseVertexRow parses the cells of one vertices.csv data row.
func parseVertexRow(cells, labels []string) (core.VertexTuple, error) {
	id, err := strconv.ParseInt(cells[0], 10, 64)
	if err != nil {
		return core.VertexTuple{}, fmt.Errorf("id: %v", err)
	}
	iv, err := parseIntervalCells(cells[1], cells[2])
	if err != nil {
		return core.VertexTuple{}, err
	}
	return core.VertexTuple{ID: core.VertexID(id), Interval: iv, Props: parsePropCells(cells[3:], labels)}, nil
}

// parseEdgeRow parses the cells of one edges.csv data row.
func parseEdgeRow(cells, labels []string) (core.EdgeTuple, error) {
	var nums [3]int64
	for j := range nums {
		n, err := strconv.ParseInt(cells[j], 10, 64)
		if err != nil {
			return core.EdgeTuple{}, fmt.Errorf("col %d: %v", j+1, err)
		}
		nums[j] = n
	}
	iv, err := parseIntervalCells(cells[3], cells[4])
	if err != nil {
		return core.EdgeTuple{}, err
	}
	return core.EdgeTuple{
		ID: core.EdgeID(nums[0]), Src: core.VertexID(nums[1]), Dst: core.VertexID(nums[2]),
		Interval: iv, Props: parsePropCells(cells[5:], labels),
	}, nil
}

func parseIntervalCells(start, end string) (temporal.Interval, error) {
	s, err := strconv.ParseInt(start, 10, 64)
	if err != nil {
		return temporal.Interval{}, fmt.Errorf("start: %v", err)
	}
	e, err := strconv.ParseInt(end, 10, 64)
	if err != nil {
		return temporal.Interval{}, fmt.Errorf("end: %v", err)
	}
	return temporal.NewInterval(temporal.Time(s), temporal.Time(e))
}

// parsePropCells decodes property cells: int, then float, then bool,
// then string; empty cells are skipped.
func parsePropCells(cells []string, labels []string) props.Props {
	var b props.Builder
	for i, cell := range cells {
		if i >= len(labels) || cell == "" {
			continue
		}
		b.Set(labels[i], ParseValue(cell))
	}
	return b.Build()
}

// ParseValue auto-types a textual cell the way CSV import does: int,
// then float, then bool, falling back to string. The serve layer uses
// the same typing for appended delta properties so HTTP-ingested and
// CSV-imported data agree.
func ParseValue(s string) props.Value {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return props.Int(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return props.Float(f)
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return props.Bool(b)
	}
	return props.StringVal(s)
}

// ImportCSV loads a graph directory containing vertices.csv and
// edges.csv (edges optional) and returns the states.
func ImportCSV(dir string) (vs []core.VertexTuple, es []core.EdgeTuple, err error) {
	err = streamCSVDir(dir,
		func(v core.VertexTuple) error { vs = append(vs, v); return nil },
		func(e core.EdgeTuple) error { es = append(es, e); return nil })
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	return vs, es, nil
}

// ExportCSV writes a graph's states as vertices.csv and edges.csv in
// dir. Each file is written atomically (temp file, fsync, rename) and
// flush/close errors are returned, so a crash mid-export never leaves a
// torn CSV under the final name.
func ExportCSV(dir string, g core.TGraph) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := atomicWriteFile(dir+"/vertices.csv", nil, func(w io.Writer) error {
		return WriteVerticesCSV(w, g.VertexStates())
	}); err != nil {
		return err
	}
	_, err := atomicWriteFile(dir+"/edges.csv", nil, func(w io.Writer) error {
		return WriteEdgesCSV(w, g.EdgeStates())
	})
	return err
}
