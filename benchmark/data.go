package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/props"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// dataset is one generated graph with the record of how it was made.
type dataset struct {
	name        string
	vs          []core.VertexTuple
	es          []core.EdgeTuple
	fingerprint string
	genTime     time.Duration
}

func (d *dataset) states() int { return len(d.vs) + len(d.es) }

func (d *dataset) lifetime() temporal.Interval {
	life := temporal.Empty
	for _, v := range d.vs {
		life = temporal.Span(life, v.Interval)
	}
	return life
}

// genSNB generates the SNB-like friendship graph every workload serves.
func genSNB(sz sizes, persons int, seed int64) *dataset {
	start := time.Now()
	d := datagen.SNB(datagen.SNBConfig{
		Persons: persons, Snapshots: sz.snapshots,
		FriendshipsPerPerson: sz.friendships, FirstNames: sz.firstNames, Seed: seed,
	})
	return newDataset("snb", d, time.Since(start))
}

// genNGrams generates the NGrams-like co-occurrence graph explore-cold
// reads beside the SNB one: edges that appear and disappear, where
// SNB's only accumulate.
func genNGrams(sz sizes, seed int64) *dataset {
	start := time.Now()
	d := datagen.NGrams(datagen.NGramsConfig{
		Words: sz.words, Snapshots: sz.snapshots,
		PairsPerSnapshot: sz.pairsPerYear, Persistence: 0.35, Seed: seed,
	})
	return newDataset("ngrams", d, time.Since(start))
}

func newDataset(name string, d datagen.Dataset, gen time.Duration) *dataset {
	return &dataset{name: name, vs: d.Vertices, es: d.Edges, fingerprint: fingerprint(d.Vertices, d.Edges), genTime: gen}
}

// fingerprint hashes every generated tuple, so a later edit to the
// generator cannot change the benchmark's inputs unnoticed.
func fingerprint(vs []core.VertexTuple, es []core.EdgeTuple) string {
	h := sha256.New()
	var b [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, v := range vs {
		num(int64(v.ID))
		num(int64(v.Interval.Start))
		num(int64(v.Interval.End))
		h.Write([]byte(v.Props.String()))
	}
	for _, e := range es {
		num(int64(e.ID))
		num(int64(e.Src))
		num(int64(e.Dst))
		num(int64(e.Interval.Start))
		num(int64(e.Interval.End))
		h.Write([]byte(e.Props.String()))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// save writes the dataset as a graph directory and returns how long
// SaveGraph took.
func (d *dataset) save(ctx *dataflow.Context, dir string, chunkRows int) (time.Duration, error) {
	start := time.Now()
	err := storage.SaveGraph(dir, core.NewVE(ctx, d.vs, d.es), storage.SaveOptions{ChunkRows: chunkRows})
	if err != nil {
		return 0, fmt.Errorf("saving %s: %w", d.name, err)
	}
	return time.Since(start), nil
}

// workDir is where a run keeps its graph directories: inside the
// checkout, never in the system's temp directory.
type workDir struct {
	root string
	n    int
}

// newWorkDir creates benchmark/out/run-<pid> under the checkout root.
func newWorkDir(outDir string) (*workDir, error) {
	root := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &workDir{root: root}, nil
}

// fresh returns a new empty directory path under the work dir.
func (w *workDir) fresh(name string) string {
	w.n++
	return filepath.Join(w.root, fmt.Sprintf("%s-%d", name, w.n))
}

func (w *workDir) remove() { os.RemoveAll(w.root) }

// findOutDir returns benchmark/out under the checkout root, which is
// where the command must run: the driver, run.sh and `go run
// ./benchmark` all start it there.
func findOutDir() (string, error) {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root")
	}
	return filepath.Join("benchmark", "out"), nil
}

// deltaGen fabricates the append batches of ingest-mixed and of the
// write-path probes. Nine batches in ten land at the time frontier (the
// last three time units of the lifetime, so windows never restructure);
// every tenth batch is a late event into one old three-unit range. A
// batch is never mixed, because the server invalidates the smallest
// interval covering the whole batch.
type deltaGen struct {
	rng      *rand.Rand
	persons  int
	early    []core.VertexID // persons alive from the first time units
	end      temporal.Time
	names    int
	nextID   int64
	oldLimit temporal.Time // late events land in [3, oldLimit)
}

func newDeltaGen(d *dataset, sz sizes, seed int64) *deltaGen {
	g := &deltaGen{
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)), persons: len(d.vs),
		end: d.lifetime().End, names: sz.firstNames, nextID: 1 << 40,
		oldLimit: temporal.Time(sz.snapshots * 2 / 3),
	}
	for _, v := range d.vs {
		if v.Interval.Start <= 2 {
			g.early = append(g.early, v.ID)
		}
	}
	return g
}

// isLate reports whether the i-th batch is a late-event batch.
func isLate(i int) bool { return i%10 == 9 }

// batch returns the i-th batch of n deltas: alternating new person
// states and new friendship states between persons alive at that time.
func (g *deltaGen) batch(i, n int) []wal.Delta {
	out := make([]wal.Delta, 0, n)
	var iv temporal.Interval
	pick := func() int64 { return int64(1 + g.rng.Intn(g.persons)) }
	if isLate(i) && len(g.early) >= 2 {
		start := 3 + temporal.Time(g.rng.Int63n(int64(g.oldLimit)-5))
		iv = temporal.MustInterval(start, start+2)
		pick = func() int64 { return int64(g.early[g.rng.Intn(len(g.early))]) }
	} else {
		iv = temporal.MustInterval(g.end-1-temporal.Time(g.rng.Intn(3)), g.end)
	}
	for j := 0; j < n; j++ {
		g.nextID++
		if j%2 == 0 {
			out = append(out, wal.Delta{
				Kind: wal.KindVertex, ID: g.nextID, Interval: iv,
				Props: props.New("type", "person", "firstName", fmt.Sprintf("name%05d", g.rng.Intn(g.names))),
			})
			continue
		}
		src, dst := pick(), pick()
		for dst == src {
			dst = pick()
		}
		out = append(out, wal.Delta{
			Kind: wal.KindEdge, ID: g.nextID, Src: src, Dst: dst, Interval: iv,
			Props: props.New("type", "knows"),
		})
	}
	return out
}
