// Command tgraph-serve exposes saved TGraph directories as a
// concurrent zoom query service (see internal/serve): JSON aZoom^T /
// wZoom^T / pipeline endpoints with a fingerprinted result cache,
// singleflight deduplication, per-request timeouts, admission control
// with bounded queueing, circuit-broken graph reloads with degraded
// (stale-graph) fallback, and graceful drain.
//
// Usage:
//
//	tgraph-serve -graph snb=/data/snb -graph fig1=/data/fig1 \
//	    -addr :8080 -cache-mb 64 -timeout 30s \
//	    -max-inflight 64 -queue-depth 128 -breaker-threshold 3 \
//	    -drain-timeout 30s
//
// Each -graph names one served directory as name=dir; the directory is
// everything after the first "=". Every graph is served as a VE value.
// The server is the directory's only writer and reads it only at the
// first load: after an offline re-save, POST /v1/graphs/{name}/reload
// adopts the new epoch. POST /v1/append ingests live deltas through
// each directory's write-ahead log (an append is acked only after its
// fsync) and invalidates cached results surgically by declared time
// range; -compact-after
// folds the log into a fresh columnar epoch inline. -shards N splits
// each graph across N in-process shard workers at load time (a vertex
// cut) and serves queries scatter-gather, byte-identical to unsharded;
// a failed shard fails the request. On
// SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests; if they outlive -drain-timeout the process exits
// non-zero so supervisors see the unclean shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// graphFlags collects repeated -graph name=dir values.
type graphFlags []serve.GraphConfig

func (g *graphFlags) String() string {
	parts := make([]string, len(*g))
	for i, gc := range *g {
		parts[i] = gc.Name + "=" + gc.Dir
	}
	return strings.Join(parts, ",")
}

func (g *graphFlags) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok || name == "" || dir == "" {
		return fmt.Errorf("want name=dir, got %q", v)
	}
	*g = append(*g, serve.GraphConfig{Name: name, Dir: dir})
	return nil
}

// drainExit drains the server within timeout and returns the process
// exit code: 0 for a clean drain, 1 when in-flight requests outlived
// the deadline.
func drainExit(s *serve.Server, timeout time.Duration) int {
	if err := s.DrainWithin(timeout); err != nil {
		log.Printf("tgraph-serve: %v", err)
		return 1
	}
	log.Print("tgraph-serve: drained, bye")
	return 0
}

func main() {
	var graphs graphFlags
	addr := flag.String("addr", ":8080", "listen address")
	cacheMB := flag.Int64("cache-mb", 64, "result cache budget in MiB (0 disables residency)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request computation timeout (0 for none)")
	parallelism := flag.Int("parallelism", 0, "per-request dataflow parallelism (0 = NumCPU)")
	scanParallelism := flag.Int("scan-parallelism", 0, "storage scan decode workers per file when loading graphs (0 = GOMAXPROCS, 1 = sequential)")
	maxInflight := flag.Int("max-inflight", 64, "admission control: max concurrently executing query requests (0 disables shedding)")
	queueDepth := flag.Int("queue-depth", 128, "admission control: bounded FIFO wait queue behind -max-inflight (0 = shed immediately when full)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive reload failures that trip a graph's circuit breaker into degraded stale serving")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "how long a tripped reload breaker stays open before probing the directory again")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown; exceeded = non-zero exit")
	compactAfter := flag.Int("compact-after", 0, "fold the WAL into a new columnar epoch after this many appended records (0 disables inline compaction)")
	shards := flag.Int("shards", 0, "split each graph into this many in-process shards at load time and serve scatter-gather (<= 1 serves unsharded)")
	flag.Var(&graphs, "graph", "graph to serve as name=dir; repeatable")
	flag.Parse()

	if len(graphs) == 0 {
		fmt.Fprintln(os.Stderr, "tgraph-serve: at least one -graph name=dir is required")
		flag.Usage()
		os.Exit(2)
	}

	s, err := serve.New(serve.Config{
		Graphs:           graphs,
		CacheBytes:       *cacheMB << 20,
		Timeout:          *timeout,
		Parallelism:      *parallelism,
		ScanParallelism:  *scanParallelism,
		MaxInflight:      *maxInflight,
		QueueDepth:       *queueDepth,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		CompactAfter:     *compactAfter,
		Shards:           *shards,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("tgraph-serve: listening on %s, serving %s", *addr, graphs.String())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("tgraph-serve: %v, draining", sig)
	}

	// Stop accepting connections, then wait for in-flight queries up to
	// the drain deadline.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("tgraph-serve: shutdown: %v", err)
	}
	os.Exit(drainExit(s, *drainTimeout))
}
