package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads a JSON-lines file of run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is what the benchmark's acceptance rule is written in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict judges one metric on one workload between two sets of runs.
// worse is how far b's median is on the wrong side of a's, as a share
// of a's; spread is the wider of the two sets' own spreads. A metric
// regressed when b is worse by more than the bound and by more than the
// spread; when the spread is wider than the bound and b is not that
// much worse, nothing can be said.
func verdict(def metricDef, a, b []float64) (worse, spread float64, v string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == "higher" {
			worse = -worse
		}
	}
	spread = max(spreadOf(a), spreadOf(b))
	switch {
	case worse > max(def.Bound, spread):
		return worse, spread, "regressed"
	case spread > def.Bound:
		return worse, spread, "unresolved"
	default:
		return worse, spread, "ok"
	}
}

type groupKey struct {
	workload string
	trace    int
}

func groupRecords(recs []record) map[groupKey][]record {
	out := make(map[groupKey][]record)
	for _, r := range recs {
		k := groupKey{r.Workload, r.Trace}
		out[k] = append(out[k], r)
	}
	return out
}

func valuesOf(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints, per workload, every end-to-end metric's and
// timing's two medians, the change, the bound and the verdict, then the per-layer
// metrics the workload reaches, from any traced records, with a note on
// whether they repeat exactly. It reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ga, gb := groupRecords(a), groupRecords(b)
	for _, wl := range workloads {
		ra, rb := ga[groupKey{wl.Name, 0}], gb[groupKey{wl.Name, 0}]
		if len(ra) > 0 && len(rb) > 0 {
			fmt.Fprintf(w, "%s  (%d runs against %d)\n", wl.Name, len(ra), len(rb))
			fmt.Fprintf(w, "  %-22s %14s %14s %8s %7s %7s  %s\n", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
			for _, def := range reported(false) {
				va, vb := valuesOf(ra, def.Name), valuesOf(rb, def.Name)
				_, ma, _ := quartiles(va)
				_, mb, _ := quartiles(vb)
				worse, spread, v := verdict(def, va, vb)
				regressed = regressed || v == "regressed"
				fmt.Fprintf(w, "  %-22s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
					def.Name, ma, mb, 100*worse, 100*spread, 100*def.Bound, v)
			}
			for _, side := range []struct {
				name string
				recs []record
			}{{"a", ra}, {"b", rb}} {
				for _, r := range side.recs {
					if !r.Correct {
						regressed = true
						fmt.Fprintf(w, "  incorrect run in %s (seed %d): %d/%d failed %v\n", side.name, r.Config.Seed, r.Failed, r.Attempted, r.Problems)
					}
				}
			}
		}
		ta, tb := ga[groupKey{wl.Name, 1}], gb[groupKey{wl.Name, 1}]
		if len(ta) == 0 || len(tb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s traced  (%d runs against %d)\n", wl.Name, len(ta), len(tb))
		unreached := make(map[string]bool)
		for _, name := range ta[0].Unreached {
			unreached[name] = true
		}
		for _, def := range perLayer {
			if unreached[def.Name] {
				continue
			}
			va, vb := valuesOf(ta, def.Name), valuesOf(tb, def.Name)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			note := fmt.Sprintf("spread %.1f%%", 100*max(spreadOf(va), spreadOf(vb)))
			if allEqual(append(va, vb...)) {
				note = "repeats exactly"
			}
			fmt.Fprintf(w, "  %-36s %14.4f %14.4f %-6s %s\n", def.Name, ma, mb, def.Unit, note)
		}
	}
	return regressed, nil
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
