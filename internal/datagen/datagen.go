// Package datagen generates synthetic evolving graphs that model the
// statistical character of the three evaluation datasets of the paper's
// Section 5 (Table 2):
//
//	WikiTalk — very sparse messaging events: growth-only vertices with
//	           static attributes (name, editCount), short-lived edges,
//	           low evolution rate (~14% edit similarity);
//	NGrams   — word co-occurrence: persistent vertices, edges that
//	           appear and disappear with multi-year lifespans, a linear
//	           |E| vs |V| relationship, medium evolution rate;
//	SNB      — an LDBC-SNB-like friendship network: growth-only persons
//	           (firstName from a 5,300-name pool) and accumulating
//	           friendship edges, high evolution rate (~90%).
//
// The real datasets (10M-2.8B edges, and the LDBC generator) are not
// available offline; these generators reproduce the properties the
// paper's analysis attributes its results to — growth-only vs.
// appearing/disappearing entities, attribute change frequency, number
// of snapshots, and group-by cardinality — at laptop scale.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/temporal"
)

// Dataset is a generated evolving graph plus its descriptive name.
type Dataset struct {
	Name     string
	Vertices []core.VertexTuple
	Edges    []core.EdgeTuple
}

// Graph wraps the dataset as a VE TGraph.
func (d Dataset) Graph(ctx *dataflow.Context) *core.VE {
	return core.NewVE(ctx, d.Vertices, d.Edges)
}

// WikiTalkConfig parameterises the WikiTalk-like generator.
type WikiTalkConfig struct {
	// Users is the total number of user vertices.
	Users int
	// Snapshots is the number of monthly snapshots.
	Snapshots int
	// EventsPerSnapshot is the number of messaging edges per month.
	EventsPerSnapshot int
	// EditCountValues is the cardinality of the editCount attribute
	// (~15K unique values in the real dataset).
	EditCountValues int
	// Seed makes generation deterministic.
	Seed int64
}

// WikiTalk generates the WikiTalk-like dataset. Vertices join over
// time (more in early months, as wiki-en growth did), persist forever,
// and never change attributes; message edges live for a single month
// and connect users under preferential attachment.
func WikiTalk(cfg WikiTalkConfig) Dataset {
	if cfg.EditCountValues <= 0 {
		cfg.EditCountValues = 1000
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	end := temporal.Time(cfg.Snapshots)
	vs := make([]core.VertexTuple, 0, cfg.Users)
	joined := make([]temporal.Time, cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		// Quadratic bias towards early joins.
		f := r.Float64()
		join := temporal.Time(float64(cfg.Snapshots) * f * f)
		if join >= end {
			join = end - 1
		}
		joined[i] = join
		vs = append(vs, core.VertexTuple{
			ID:       core.VertexID(i + 1),
			Interval: temporal.Interval{Start: join, End: end},
			Props: props.New(
				"type", "user",
				"name", fmt.Sprintf("user%07d", i+1),
				"editCount", int64(r.Intn(cfg.EditCountValues)),
			),
		})
	}
	zipf := rand.NewZipf(r, 1.4, 4, uint64(max(cfg.Users-1, 1)))
	var es []core.EdgeTuple
	// Edge identity is the (src, dst) pair, as in the real dataset: a
	// pair messaging again in a later month is the same edge
	// reappearing, which is what the evolution-rate statistic measures.
	type pair struct{ src, dst int }
	pairIDs := make(map[pair]core.EdgeID)
	type occurrence struct {
		id core.EdgeID
		m  temporal.Time
	}
	seen := make(map[occurrence]bool)
	for m := temporal.Time(0); m < end; m++ {
		for k := 0; k < cfg.EventsPerSnapshot; k++ {
			src := int(zipf.Uint64())
			dst := int(zipf.Uint64())
			if src == dst || joined[src] > m || joined[dst] > m {
				continue
			}
			p := pair{src: src, dst: dst}
			id, ok := pairIDs[p]
			if !ok {
				id = core.EdgeID(len(pairIDs) + 1)
				pairIDs[p] = id
			}
			if seen[occurrence{id: id, m: m}] {
				continue // the pair already messaged this month
			}
			seen[occurrence{id: id, m: m}] = true
			es = append(es, core.EdgeTuple{
				ID:  id,
				Src: core.VertexID(src + 1), Dst: core.VertexID(dst + 1),
				Interval: temporal.Interval{Start: m, End: m + 1},
				Props:    props.New("type", "message"),
			})
		}
	}
	return Dataset{Name: "WikiTalk", Vertices: vs, Edges: es}
}

// NGramsConfig parameterises the NGrams-like generator.
type NGramsConfig struct {
	// Words is the number of word vertices.
	Words int
	// Snapshots is the number of yearly snapshots.
	Snapshots int
	// PairsPerSnapshot is the number of new co-occurrence pairs
	// appearing per year.
	PairsPerSnapshot int
	// Persistence is the probability that an edge alive in one year
	// survives into the next (geometric lifespans). The real dataset's
	// ~17%% edit similarity corresponds to persistence around 0.18.
	Persistence float64
	// Seed makes generation deterministic.
	Seed int64
}

// NGrams generates the NGrams-like dataset: persistent word vertices
// and co-occurrence edges with geometric lifespans.
func NGrams(cfg NGramsConfig) Dataset {
	if cfg.Persistence <= 0 {
		cfg.Persistence = 0.18
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	end := temporal.Time(cfg.Snapshots)
	vs := make([]core.VertexTuple, 0, cfg.Words)
	for i := 0; i < cfg.Words; i++ {
		// Words enter the corpus early and persist.
		start := temporal.Time(0)
		if r.Intn(5) == 0 {
			start = temporal.Time(r.Intn(cfg.Snapshots / 2))
		}
		vs = append(vs, core.VertexTuple{
			ID:       core.VertexID(i + 1),
			Interval: temporal.Interval{Start: start, End: end},
			Props:    props.New("type", "word", "word", fmt.Sprintf("word%06d", i+1)),
		})
	}
	zipf := rand.NewZipf(r, 1.2, 3, uint64(max(cfg.Words-1, 1)))
	var es []core.EdgeTuple
	eid := core.EdgeID(1)
	for y := temporal.Time(0); y < end; y++ {
		for k := 0; k < cfg.PairsPerSnapshot; k++ {
			a := int(zipf.Uint64())
			b := int(zipf.Uint64())
			if a == b {
				continue
			}
			// Geometric lifespan: continue each year with the
			// configured persistence probability.
			life := temporal.Time(1)
			for r.Float64() < cfg.Persistence {
				life++
			}
			iv := temporal.Interval{Start: y, End: min(y+life, end)}
			va, vb := vs[a], vs[b]
			iv = iv.Intersect(va.Interval).Intersect(vb.Interval)
			if iv.IsEmpty() {
				continue
			}
			es = append(es, core.EdgeTuple{
				ID:  eid,
				Src: va.ID, Dst: vb.ID,
				Interval: iv,
				Props:    props.New("type", "cooccur"),
			})
			eid++
		}
	}
	return Dataset{Name: "NGrams", Vertices: vs, Edges: es}
}

// SNBConfig parameterises the LDBC-SNB-like generator.
type SNBConfig struct {
	// Persons is the number of person vertices.
	Persons int
	// Snapshots is the number of monthly snapshots (36 in the paper).
	Snapshots int
	// FriendshipsPerPerson is the mean number of friendship edges per
	// person over the whole lifetime.
	FriendshipsPerPerson int
	// FirstNames is the firstName attribute cardinality (5,300 in
	// SNB:1000).
	FirstNames int
	// Seed makes generation deterministic.
	Seed int64
}

// SNB generates the SNB-like growth-only friendship network: every
// vertex and edge is added once and never goes away.
func SNB(cfg SNBConfig) Dataset {
	if cfg.FirstNames <= 0 {
		cfg.FirstNames = 5300
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	end := temporal.Time(cfg.Snapshots)
	vs := make([]core.VertexTuple, 0, cfg.Persons)
	joined := make([]temporal.Time, cfg.Persons)
	for i := 0; i < cfg.Persons; i++ {
		join := temporal.Time(r.Intn(cfg.Snapshots))
		joined[i] = join
		vs = append(vs, core.VertexTuple{
			ID:       core.VertexID(i + 1),
			Interval: temporal.Interval{Start: join, End: end},
			Props: props.New(
				"type", "person",
				"firstName", fmt.Sprintf("name%05d", r.Intn(cfg.FirstNames)),
			),
		})
	}
	var es []core.EdgeTuple
	eid := core.EdgeID(1)
	total := cfg.Persons * cfg.FriendshipsPerPerson
	for k := 0; k < total; k++ {
		a := r.Intn(cfg.Persons)
		b := r.Intn(cfg.Persons)
		if a == b {
			continue
		}
		start := max(joined[a], joined[b])
		// Friendship forms some time after both joined.
		if slack := int64(end) - int64(start) - 1; slack > 0 {
			start += temporal.Time(r.Int63n(slack + 1))
		}
		if start >= end {
			continue
		}
		es = append(es, core.EdgeTuple{
			ID:  eid,
			Src: core.VertexID(a + 1), Dst: core.VertexID(b + 1),
			Interval: temporal.Interval{Start: start, End: end},
			Props:    props.New("type", "knows"),
		})
		eid++
	}
	return Dataset{Name: "SNB", Vertices: vs, Edges: es}
}
