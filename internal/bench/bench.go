// Package bench implements the experiment harness that regenerates
// every table and figure of the paper's evaluation (Section 5) at
// laptop scale: the same parameter sweeps, representations and
// workloads, with wall-clock time (and dataflow work counters) in place
// of cluster minutes. cmd/tgraph-bench runs experiments by id. This is
// the scale axis only; the five serving/ingest workloads, their bounds
// and the per-layer probes live in benchmark/.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is the default laptop scale.
	Scale float64 `json:"scale"`
	// Parallelism bounds the worker pool; <= 0 selects NumCPU.
	Parallelism int `json:"parallelism"`
	// Seed drives all generators.
	Seed int64 `json:"seed"`
	// TimeoutMS bounds each experiment's dataflow work with a deadline
	// (milliseconds); 0 means no deadline. Jobs past the deadline fail
	// with context.DeadlineExceeded.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (c Config) scale(n int) int {
	if c.Scale <= 0 {
		return n
	}
	return max(1, int(float64(n)*c.Scale))
}

func (c Config) context() *dataflow.Context {
	var opts []dataflow.Option
	if c.Parallelism > 0 {
		opts = append(opts, dataflow.WithParallelism(c.Parallelism))
	}
	if c.TimeoutMS > 0 {
		opts = append(opts, dataflow.WithTimeout(time.Duration(c.TimeoutMS)*time.Millisecond))
	}
	return dataflow.NewContext(opts...)
}

// Table is one result table, formatted like the paper's figures' data.
type Table struct {
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				widths[i] = max(widths[i], len(c))
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	dashes := make([]string, len(t.Header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	line(dashes)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(cfg Config) []Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments sorted by id.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// timeOp measures one operation: the median of three executions, the
// way the paper reports the mean of three cold runs.
func timeOp(f func()) time.Duration {
	runs := make([]time.Duration, 3)
	for i := range runs {
		start := time.Now()
		f()
		runs[i] = time.Since(start)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	return runs[1]
}

// timeOnce measures a single execution, for operations that cannot be
// repeated cheaply (cold loads).
func timeOnce(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// buildRep constructs a representation from a dataset, outside the
// timed region.
func buildRep(ctx *dataflow.Context, d datagen.Dataset, rep core.Representation) core.TGraph {
	ve := core.NewVE(ctx, d.Vertices, d.Edges)
	switch rep {
	case core.RepVE:
		return ve.Coalesce()
	case core.RepOG:
		return core.ToOG(ve.Coalesce().(*core.VE))
	case core.RepRG:
		return core.ToRG(ve)
	case core.RepOGC:
		return core.ToOGC(ve)
	default:
		panic("unknown representation")
	}
}

// Standard laptop-scale dataset configurations, mirroring the character
// (not the size) of the paper's datasets.

// WikiTalkDataset generates the WikiTalk-like workload.
func WikiTalkDataset(cfg Config, snapshots int) datagen.Dataset {
	return datagen.WikiTalk(datagen.WikiTalkConfig{
		Users:             cfg.scale(2000),
		Snapshots:         snapshots,
		EventsPerSnapshot: cfg.scale(1200),
		EditCountValues:   1500,
		Seed:              cfg.Seed + 1,
	})
}

// SNBDataset generates the SNB-like workload.
func SNBDataset(cfg Config, snapshots int) datagen.Dataset {
	return datagen.SNB(datagen.SNBConfig{
		Persons:              cfg.scale(1500),
		Snapshots:            snapshots,
		FriendshipsPerPerson: 14,
		FirstNames:           530,
		Seed:                 cfg.Seed + 2,
	})
}

// NGramsDataset generates the NGrams-like workload.
func NGramsDataset(cfg Config, snapshots int) datagen.Dataset {
	return datagen.NGrams(datagen.NGramsConfig{
		Words:            cfg.scale(1200),
		Snapshots:        snapshots,
		PairsPerSnapshot: cfg.scale(900),
		Persistence:      0.18,
		Seed:             cfg.Seed + 3,
	})
}

// azoomSpecFor returns the paper's per-dataset grouping attribute:
// WikiTalk by name/editCount, SNB by firstName, NGrams by word.
func azoomSpecFor(dataset string) core.AZoomSpec {
	switch {
	case strings.HasPrefix(dataset, "WikiTalk"):
		return core.GroupByProperty("name", "user-group")
	case strings.HasPrefix(dataset, "SNB"):
		return core.GroupByProperty("firstName", "name-group")
	default:
		return core.GroupByProperty("word", "word-group")
	}
}
