// Command tgraph-bench regenerates the paper's evaluation tables and
// figures (Section 5) at laptop scale.
//
// Usage:
//
//	tgraph-bench -list
//	tgraph-bench -exp fig10 [-scale 1.0] [-parallelism 8] [-seed 42]
//	tgraph-bench -exp all
//	tgraph-bench -exp fig14 -json out.json
//
// With -json, every run also executes instrumented (tracing on, obs
// registry reset per experiment) and the results are written as a JSON
// array of {exp, config, rows, metrics, spans} records.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id (see -list), or \"all\"")
		list        = flag.Bool("list", false, "list available experiments")
		scale       = flag.Float64("scale", 1.0, "dataset size multiplier")
		parallelism = flag.Int("parallelism", 0, "worker pool size (0 = NumCPU)")
		seed        = flag.Int64("seed", 42, "generator seed")
		jsonPath    = flag.String("json", "", "write machine-readable results to this file")
		timeout     = flag.Duration("timeout", 0, "per-experiment deadline for dataflow work, e.g. 2m (0 = none)")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("Available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Title)
			fmt.Printf("            %s\n", e.Description)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := bench.Config{Scale: *scale, Parallelism: *parallelism, Seed: *seed, TimeoutMS: timeout.Milliseconds()}
	var run []bench.Experiment
	if *exp == "all" {
		run = bench.Experiments()
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "tgraph-bench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		run = []bench.Experiment{e}
	}
	var results []bench.RunResult
	for _, e := range run {
		fmt.Printf("# %s\n# %s\n", e.Title, e.Description)
		start := time.Now()
		tables, err := runExperiment(e, cfg, *jsonPath != "", &results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tgraph-bench: experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, tb := range tables {
			fmt.Println(tb.String())
		}
		fmt.Printf("# %s completed in %s\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := bench.WriteJSON(*jsonPath, results); err != nil {
			fmt.Fprintf(os.Stderr, "tgraph-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# wrote %d result(s) to %s\n", len(results), *jsonPath)
	}
}

// runExperiment executes one experiment, converting the panic(err) an
// experiment body raises on a failed or deadline-exceeded zoom into a
// clean error instead of a crash.
func runExperiment(e bench.Experiment, cfg bench.Config, instrumented bool, results *[]bench.RunResult) (tables []bench.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			if rerr, ok := r.(error); ok {
				err = rerr
				return
			}
			panic(r)
		}
	}()
	if instrumented {
		res := bench.RunInstrumented(e, cfg)
		*results = append(*results, res)
		return res.Rows, nil
	}
	return e.Run(cfg), nil
}
