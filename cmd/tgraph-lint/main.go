// Command tgraph-lint runs the repository's custom static checks (see
// internal/lint): it fails when any package outside internal/props
// constructs a raw map[string]props.Value (the pattern the interned
// Props runtime replaced), when an exported symbol in a
// doc-coverage-enforced package (internal/storage) lacks a godoc
// comment, when a package on the zoom result path calls sort.Slice
// or sort.SliceStable, or when README.md, DESIGN.md, PAPER.md or a Go
// comment names a pkg.Name or pkg.Type.Member that the module does not
// declare. Usage:
//
//	tgraph-lint [dir]
//
// dir defaults to the current directory. Violations are printed one
// per line in file:line:col format and the exit status is 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	diags, err := lint.CheckDir(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tgraph-lint: %v\n", err)
		os.Exit(2)
	}
	docDiags, err := lint.CheckDocs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tgraph-lint: %v\n", err)
		os.Exit(2)
	}
	sortDiags, err := lint.CheckSorts(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tgraph-lint: %v\n", err)
		os.Exit(2)
	}
	refDiags, err := lint.CheckDocRefs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tgraph-lint: %v\n", err)
		os.Exit(2)
	}
	diags = append(append(append(diags, docDiags...), sortDiags...), refDiags...)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tgraph-lint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
