package storage

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// File names inside a graph directory. The flat layout serves VE and
// RG; the nested layout serves OG and OGC (the paper found converting
// nested files at load time significantly faster than re-grouping flat
// ones). A server's inline compaction stores only the flat layout
// (SkipNested). The MANIFEST commit record (manifest.go) lists the
// stored files and makes the directory crash-consistent as a whole.
const (
	FlatVerticesFile   = "vertices.pgc"
	FlatEdgesFile      = "edges.pgc"
	NestedVerticesFile = "vertices.pgn"
	NestedEdgesFile    = "edges.pgn"
)

// SaveOptions configures SaveGraph.
type SaveOptions struct {
	// FlatOrder is the sort order for the flat files. The paper sorts
	// VE-bound data temporally and RG-bound data structurally; write
	// both layouts from the same option by calling SaveGraph twice into
	// different directories, or accept the default here.
	FlatOrder SortOrder
	// ChunkRows overrides the zone-map granularity.
	ChunkRows int
	// SkipNested writes the flat layout only: once the MANIFEST commits,
	// the save removes the nested files an earlier save left, and Load
	// of OG or OGC returns ErrLayoutNotStored until a save without it
	// (tgraph-cli -compact) writes them again.
	SkipNested bool
	// FaultHook is the write-path crash-injection point (see WriteHook);
	// nil in production.
	FaultHook WriteHook
	// WALSeq is the highest write-ahead-log sequence number the saved
	// files subsume, recorded in the manifest so Load replays only later
	// records. Zero means "the directory's whole current WAL tail": a
	// full SaveGraph writes the complete in-memory graph, so whatever
	// the log holds is folded by definition. Compact instead passes the
	// sequence it captured before replaying, so records appended while
	// it ran stay live.
	WALSeq uint64
	// Reclaim, when set, holds each file the save replaces, so the
	// renames leave the freeing of the old blocks to it (see Reclaimer);
	// nil lets the renames free them. Compact settles it on return.
	Reclaim *Reclaimer
}

// SaveGraph persists a TGraph into dir transactionally: every file is
// staged as a fsynced temp file, renamed into place only once all of
// them are written, and the save commits by atomically writing the
// MANIFEST last. A crash at any byte leaves either the previous
// committed directory (crash while staging) or a detectably
// inconsistent one (crash inside the commit window), never silently
// torn data. A failed save cleans up its staged temp files.
func SaveGraph(dir string, g core.TGraph, opts SaveOptions) error {
	_, err := saveGraph(dir, g, opts)
	return err
}

// saveGraph is SaveGraph; it also returns the BaseStamp of the MANIFEST
// it committed.
func saveGraph(dir string, g core.TGraph, opts SaveOptions) (stamp string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("storage: mkdir %s: %w", dir, err)
	}
	var staged []stagedFile
	var entries []ManifestEntry
	// Real errors unwind the staged temp files so aborted saves leave no
	// litter; injected crashes skip cleanup by design.
	defer func() {
		if err != nil && !isCrash(err) {
			for _, sf := range staged {
				sf.discard()
			}
		}
	}()

	stage := func(sf stagedFile, ent ManifestEntry, err error) error {
		if err == nil {
			staged, entries = append(staged, sf), append(entries, ent)
		}
		return err
	}
	w := WriteOptions{Order: opts.FlatOrder, ChunkRows: opts.ChunkRows, FaultHook: opts.FaultHook}
	err = stage(stageRows(&flatLayout, filepath.Join(dir, FlatVerticesFile), "vertices", vertexRows(g.VertexStates()), w))
	if err == nil {
		err = stage(stageRows(&flatLayout, filepath.Join(dir, FlatEdgesFile), "edges", edgeRows(g.EdgeStates()), w))
	}
	if err == nil && !opts.SkipNested {
		vrows, erows := ogNestedRows(core.ToOG(g))
		err = stage(stageRows(&nestedLayout, filepath.Join(dir, NestedVerticesFile), "vertices", vrows, w))
		if err == nil {
			err = stage(stageRows(&nestedLayout, filepath.Join(dir, NestedEdgesFile), "edges", erows, w))
		}
	}
	if err != nil {
		return "", err
	}

	// Commit: rename every staged file into place, then write the
	// manifest last — its atomic appearance is the commit point.
	walSeq := opts.WALSeq
	if walSeq == 0 && wal.Exists(dir) {
		tail, ok, terr := wal.TailSeq(dir)
		if terr != nil {
			return "", fmt.Errorf("storage: save %s: %w", dir, terr)
		}
		if ok {
			walSeq = tail
		}
	}
	for len(staged) > 0 {
		opts.Reclaim.Hold(staged[0].final)
		if err := staged[0].commit(opts.FaultHook); err != nil {
			staged = staged[1:] // already consumed (renamed or removed)
			return "", err
		}
		staged = staged[1:]
	}
	opts.Reclaim.Hold(filepath.Join(dir, ManifestFile))
	if stamp, err = writeManifest(dir, entries, walSeq, opts.FaultHook); err == nil {
		_, err = removeUnlisted(dir, &Manifest{Entries: entries}, opts.FaultHook, opts.Reclaim)
	}
	return stamp, err
}

// LoadOptions configures the GraphLoader.
type LoadOptions struct {
	// Rep selects the representation to initialise.
	Rep core.Representation
	// Range restricts loading to states overlapping the interval
	// (clipped), applied via zone-map predicate pushdown. Empty loads
	// everything.
	Range temporal.Interval
	// Coalesced asserts that the on-disk data is coalesced, marking the
	// loaded graph accordingly.
	Coalesced bool
	// Permissive degrades gracefully on data corruption: corrupt chunks
	// (and rows whose properties fail to decode) are skipped and counted
	// in the returned ScanStats instead of aborting the load, and
	// directories whose MANIFEST is missing, torn or mismatched are read
	// best-effort (legacy manifest-less directories load this way).
	// Callers should surface stats.ChunksCorrupt/RowsCorrupt as a
	// warning.
	Permissive bool
	// ChunkHook is the storage fault-injection point, passed through to
	// the chunk readers (see ReadOptions.ChunkHook).
	ChunkHook func(site string, chunk []byte) []byte
	// Scan configures the parallel scan engine (scan.go): worker count
	// per file and the cancellation context decode workers observe. When
	// Scan.Ctx is nil, Load binds it to the dataflow context's standard
	// context so serve-layer deadlines propagate into chunk decoding.
	// With more than one worker the vertex and edge files of the
	// directory also load concurrently.
	Scan ScanOptions
}

func (o LoadOptions) readOptions() ReadOptions {
	return ReadOptions{Range: o.Range, Permissive: o.Permissive, ChunkHook: o.ChunkHook, Scan: o.Scan}
}

// repFiles returns the layout a representation loads from and its
// files.
func repFiles(rep core.Representation) (string, []string, error) {
	switch rep {
	case core.RepVE, core.RepRG:
		return "flat", []string{FlatVerticesFile, FlatEdgesFile}, nil
	case core.RepOG, core.RepOGC:
		return "nested", []string{NestedVerticesFile, NestedEdgesFile}, nil
	default:
		return "", nil, fmt.Errorf("storage: cannot load representation %v", rep)
	}
}

// checkManifest validates dir's commit record against the files the
// load will read, returning the parsed manifest (nil when missing or
// torn) so the caller knows which WAL records the files subsume. It
// returns degraded=true when a Permissive load should proceed despite
// a torn or mismatched manifest (counted in storage.manifest_mismatches
// and, on success, storage.recovered_saves). A missing manifest is
// ErrIncompleteSave under strict loads and a silent legacy fallback
// under Permissive ones. An unlisted layout is ErrLayoutNotStored.
func checkManifest(dir, layout string, need []string, permissive bool) (man *Manifest, degraded bool, err error) {
	man, manErr := ReadManifest(dir)
	if manErr != nil {
		obsManifestMismatches.Add(1)
		if !permissive {
			return nil, false, manErr
		}
		return nil, true, nil
	}
	if man == nil {
		if !permissive {
			return nil, false, fmt.Errorf("storage: %s has no %s (crashed save or pre-manifest layout; Permissive mode loads it best-effort): %w",
				dir, ManifestFile, ErrIncompleteSave)
		}
		return nil, false, nil
	}
	for _, name := range need {
		ent := man.Entry(name)
		if ent == nil {
			return man, false, fmt.Errorf("storage: %s stores no %s layout (its %s does not list %s; tgraph-cli -compact writes every layout): %w",
				dir, layout, ManifestFile, name, ErrLayoutNotStored)
		}
		if err = checkEntry(dir, *ent); err != nil {
			obsManifestMismatches.Add(1)
			if !permissive {
				return man, false, err
			}
			return man, true, nil
		}
	}
	return man, false, nil
}

// replayWAL reads the directory's WAL tail past afterSeq — the records
// the manifest does not subsume — clipping deltas to the load range
// the same way the chunk scan clips rows. Strict loads fail on mid-log
// corruption; Permissive ones skip and count it.
func replayWAL(dir string, afterSeq uint64, opts LoadOptions) (deltas []wal.Delta, skipped int, err error) {
	if !wal.Exists(dir) {
		return nil, 0, nil
	}
	res, err := wal.Read(dir, afterSeq, opts.Permissive)
	if err != nil {
		return nil, 0, err
	}
	deltas = res.Deltas
	if !opts.Range.IsEmpty() {
		kept := deltas[:0]
		for _, d := range deltas {
			if !d.Interval.Overlaps(opts.Range) {
				continue
			}
			d.Interval = d.Interval.Intersect(opts.Range)
			kept = append(kept, d)
		}
		deltas = kept
	}
	return deltas, res.Skipped, nil
}

// Load is the GraphLoader utility: it initialises any representation
// from a graph directory, pushing the date-range filter down to the
// chunk zone maps. VE and RG load from the flat files (temporal vs
// structural sort order); OG and OGC load from the nested files. The
// directory's MANIFEST is checked first: strict loads refuse
// incomplete or mismatched saves with typed errors, Permissive loads
// fall back to best-effort reads. Write-ahead-log records the manifest
// does not subsume (sequence > Manifest.WALSeq) are replayed on top of
// the committed files, so a load always observes every acked append —
// and replaying the same directory twice observes them exactly once.
func Load(ctx *dataflow.Context, dir string, opts LoadOptions) (core.TGraph, ScanStats, error) {
	layout, need, err := repFiles(opts.Rep)
	if err != nil {
		return nil, ScanStats{}, err
	}
	man, degraded, err := checkManifest(dir, layout, need, opts.Permissive)
	if err != nil {
		return nil, ScanStats{}, err
	}
	var subsumed uint64
	if man != nil {
		subsumed = man.WALSeq
	}
	wd, walSkipped, err := replayWAL(dir, subsumed, opts)
	if err != nil {
		return nil, ScanStats{}, err
	}
	// A degraded (Permissive) load proceeding past a bad manifest tags
	// any fatal read error with ErrManifestMismatch: the damage was
	// already diagnosed, the read failure is its consequence.
	fail := func(stats ScanStats, err error) (core.TGraph, ScanStats, error) {
		if degraded {
			err = fmt.Errorf("%w: %v", ErrManifestMismatch, err)
		}
		return nil, stats, err
	}
	recovered := func() {
		if degraded {
			obsRecoveredSaves.Add(1)
		}
	}
	// Bind the scan to the dataflow context's cancellation scope unless
	// the caller supplied its own, so deadlines set upstream (serve
	// request contexts) abort in-flight chunk decodes.
	if opts.Scan.Ctx == nil && ctx != nil {
		opts.Scan.Ctx = ctx.Std()
	}
	par := opts.Scan.workers() > 1
	switch opts.Rep {
	case core.RepVE, core.RepRG:
		vs, es, stats, err := loadPair(par,
			func() ([]core.VertexTuple, ScanStats, error) {
				return ReadVerticesOpts(filepath.Join(dir, FlatVerticesFile), opts.readOptions())
			},
			func() ([]core.EdgeTuple, ScanStats, error) {
				return ReadEdgesOpts(filepath.Join(dir, FlatEdgesFile), opts.readOptions())
			})
		if err != nil {
			return fail(stats, err)
		}
		recovered()
		for _, d := range wd {
			if vt, ok := d.VertexTuple(); ok {
				vs = append(vs, vt)
			} else if et, ok := d.EdgeTuple(); ok {
				es = append(es, et)
			}
		}
		stats.WALReplayed, stats.WALSkipped = len(wd), walSkipped
		ve := core.NewVE(ctx, vs, es)
		if opts.Rep == core.RepRG {
			return core.ToRG(ve), stats, nil
		}
		if opts.Coalesced {
			return ve.Coalesce(), stats, nil
		}
		return ve, stats, nil
	default: // RepOG, RepOGC (repFiles already rejected the rest)
		vs, es, stats, err := loadPair(par,
			func() ([]core.OGVertex, ScanStats, error) {
				return ReadNestedVerticesOpts(filepath.Join(dir, NestedVerticesFile), opts.readOptions())
			},
			func() ([]core.OGEdge, ScanStats, error) {
				return ReadNestedEdgesOpts(filepath.Join(dir, NestedEdgesFile), opts.readOptions())
			})
		if err != nil {
			return fail(stats, err)
		}
		recovered()
		vs, es = mergeNestedDeltas(vs, es, wd)
		stats.WALReplayed, stats.WALSkipped = len(wd), walSkipped
		og := core.NewOG(ctx, vs, es)
		if opts.Rep == core.RepOGC {
			return core.ToOGC(og), stats, nil
		}
		if opts.Coalesced {
			return og.Coalesce(), stats, nil
		}
		return og, stats, nil
	}
}

// loadPair reads a directory's vertex and edge files — concurrently
// when par is set (the scan engine has more than one worker), otherwise
// in the classic sequential order. Error reporting matches a sequential
// load exactly: a vertex-file error wins and carries only the vertex
// stats, an edge-file error carries the combined stats. A panic in the
// concurrent edge read (write-path crash injection never reaches here,
// but fault hooks may panic by design) is re-raised on the calling
// goroutine so recovery behaves as in a sequential load.
func loadPair[V, E any](
	par bool,
	readV func() ([]V, ScanStats, error),
	readE func() ([]E, ScanStats, error),
) ([]V, []E, ScanStats, error) {
	var (
		es     []E
		s2     ScanStats
		eerr   error
		epanic any
	)
	if !par {
		vs, s1, verr := readV()
		if verr != nil {
			return nil, nil, s1, verr
		}
		es, s2, eerr = readE()
		return vs, es, addStats(s1, s2), eerr
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { epanic = recover() }()
		es, s2, eerr = readE()
	}()
	vs, s1, verr := readV()
	<-done
	if epanic != nil {
		panic(epanic)
	}
	if verr != nil {
		return nil, nil, s1, verr
	}
	if eerr != nil {
		return nil, nil, addStats(s1, s2), eerr
	}
	return vs, es, addStats(s1, s2), nil
}

// mergeNestedDeltas folds replayed WAL records into per-entity history
// arrays: a delta for an entity the files already hold appends to its
// history (NewOG re-sorts), a delta for a new entity adds it. Edge
// identity is the full (ID, Src, Dst) triple, matching core.ToOG.
func mergeNestedDeltas(vs []core.OGVertex, es []core.OGEdge, wd []wal.Delta) ([]core.OGVertex, []core.OGEdge) {
	if len(wd) == 0 {
		return vs, es
	}
	vidx := make(map[core.VertexID]int, len(vs))
	for i, v := range vs {
		vidx[v.ID] = i
	}
	type ekey struct{ id, src, dst int64 }
	eidx := make(map[ekey]int, len(es))
	for i, e := range es {
		eidx[ekey{int64(e.ID), int64(e.Src), int64(e.Dst)}] = i
	}
	for _, d := range wd {
		item := core.HistoryItem{Interval: d.Interval, Props: d.Props}
		switch d.Kind {
		case wal.KindVertex:
			id := core.VertexID(d.ID)
			if i, ok := vidx[id]; ok {
				vs[i].History = append(vs[i].History, item)
			} else {
				vidx[id] = len(vs)
				vs = append(vs, core.OGVertex{ID: id, History: []core.HistoryItem{item}})
			}
		case wal.KindEdge:
			k := ekey{d.ID, d.Src, d.Dst}
			if i, ok := eidx[k]; ok {
				es[i].History = append(es[i].History, item)
			} else {
				eidx[k] = len(es)
				es = append(es, core.OGEdge{
					ID: core.EdgeID(d.ID), Src: core.VertexID(d.Src), Dst: core.VertexID(d.Dst),
					History: []core.HistoryItem{item},
				})
			}
		}
	}
	return vs, es
}

func addStats(a, b ScanStats) ScanStats {
	return ScanStats{
		ChunksRead:    a.ChunksRead + b.ChunksRead,
		ChunksSkipped: a.ChunksSkipped + b.ChunksSkipped,
		RowsRead:      a.RowsRead + b.RowsRead,
		BytesRead:     a.BytesRead + b.BytesRead,
		ChunksCorrupt: a.ChunksCorrupt + b.ChunksCorrupt,
		RowsCorrupt:   a.RowsCorrupt + b.RowsCorrupt,
	}
}
