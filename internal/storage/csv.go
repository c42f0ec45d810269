package storage

import (
	"encoding/csv"
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
	header := append([]string{"id", "start", "end"}, labels...)
	if err := cw.Write(header); err != nil {
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
	header := append([]string{"id", "src", "dst", "start", "end"}, labels...)
	if err := cw.Write(header); err != nil {
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
	// Name-sorted, matching props.Keys ordering, for a stable header.
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
		row = append(row, s)
	}
	return row
}

// ReadVerticesCSV parses vertex states from CSV.
func ReadVerticesCSV(r io.Reader) ([]core.VertexTuple, error) {
	rows, labels, err := readCSV(r, []string{"id", "start", "end"})
	if err != nil {
		return nil, err
	}
	out := make([]core.VertexTuple, 0, len(rows))
	for i, row := range rows {
		id, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("storage: vertices.csv row %d: id: %v", i+2, err)
		}
		iv, err := parseIntervalCells(row[1], row[2])
		if err != nil {
			return nil, fmt.Errorf("storage: vertices.csv row %d: %v", i+2, err)
		}
		out = append(out, core.VertexTuple{
			ID:       core.VertexID(id),
			Interval: iv,
			Props:    parsePropCells(row[3:], labels),
		})
	}
	return out, nil
}

// ReadEdgesCSV parses edge states from CSV.
func ReadEdgesCSV(r io.Reader) ([]core.EdgeTuple, error) {
	rows, labels, err := readCSV(r, []string{"id", "src", "dst", "start", "end"})
	if err != nil {
		return nil, err
	}
	out := make([]core.EdgeTuple, 0, len(rows))
	for i, row := range rows {
		nums := make([]int64, 3)
		for j := 0; j < 3; j++ {
			n, err := strconv.ParseInt(row[j], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("storage: edges.csv row %d col %d: %v", i+2, j+1, err)
			}
			nums[j] = n
		}
		iv, err := parseIntervalCells(row[3], row[4])
		if err != nil {
			return nil, fmt.Errorf("storage: edges.csv row %d: %v", i+2, err)
		}
		out = append(out, core.EdgeTuple{
			ID:       core.EdgeID(nums[0]),
			Src:      core.VertexID(nums[1]),
			Dst:      core.VertexID(nums[2]),
			Interval: iv,
			Props:    parsePropCells(row[5:], labels),
		})
	}
	return out, nil
}

// readCSV parses the file, checks the fixed header prefix, and returns
// the data rows plus the property labels from the header tail.
func readCSV(r io.Reader, fixed []string) (rows [][]string, labels []string, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	all, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("storage: csv: %w", err)
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("storage: csv: missing header")
	}
	header := all[0]
	if len(header) < len(fixed) {
		return nil, nil, fmt.Errorf("storage: csv: header %v lacks required columns %v", header, fixed)
	}
	for i, want := range fixed {
		if !strings.EqualFold(strings.TrimSpace(header[i]), want) {
			return nil, nil, fmt.Errorf("storage: csv: header column %d is %q, want %q", i+1, header[i], want)
		}
	}
	labels = header[len(fixed):]
	for _, row := range all[1:] {
		if len(row) != len(header) {
			return nil, nil, fmt.Errorf("storage: csv: row has %d cells, header has %d", len(row), len(header))
		}
		rows = append(rows, row)
	}
	return rows, labels, nil
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
func ImportCSV(dir string) ([]core.VertexTuple, []core.EdgeTuple, error) {
	vf, err := os.Open(dir + "/vertices.csv")
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	defer vf.Close()
	vs, err := ReadVerticesCSV(vf)
	if err != nil {
		return nil, nil, err
	}
	ef, err := os.Open(dir + "/edges.csv")
	if os.IsNotExist(err) {
		return vs, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	defer ef.Close()
	es, err := ReadEdgesCSV(ef)
	if err != nil {
		return nil, nil, err
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
