// Package lint implements the repository's custom static checks:
//
//   - property-runtime encapsulation: property sets must be built
//     through the props package API (props.New, Builder, With...),
//     never as raw map[string]props.Value values. Outside
//     internal/props a raw property map bypasses key interning and the
//     immutability guarantee, so any construction of one — composite
//     literal or make — is a violation (CheckDir/CheckSource);
//   - godoc coverage: every exported top-level symbol in the packages
//     listed in docDirs must carry a doc comment, so the storage/scan
//     API documented in DESIGN.md stays documented at the source level
//     (CheckDocs);
//   - no reflective sorts on the result path: sort.Slice and
//     sort.SliceStable allocate a reflection swapper and a closure per
//     call, which the packages in sortDirs run per entity or per
//     request; they sort with slices.SortFunc / slices.SortStableFunc
//     (CheckSorts).
//
// The checkers are purely syntactic (go/parser + go/ast, no type
// checking), which keeps them dependency-free and fast; the map check
// recognises the value type through any import alias of the props
// package or the tgraph facade.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Import paths whose Value type makes a map[string]Value a raw
// property map, mapped to the package name an unaliased import binds
// (the facade's package name, tgraph, differs from its path).
var valueProviders = map[string]string{
	"repro/internal/props": "props",  // props.Value
	"repro":                "tgraph", // tgraph.Value (alias of props.Value)
}

// exemptDirs are directory prefixes (relative to the repo root, slash
// separated) the rule does not apply to: the props package owns the
// representation, and ToMap/FromMap legitimately traffic in raw maps
// there.
var exemptDirs = []string{"internal/props"}

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Pos, d.Message)
}

// CheckDir walks root and checks every non-exempt .go file, returning
// the violations sorted in walk order. The error return is reserved
// for I/O and parse failures.
func CheckDir(root string) ([]Diagnostic, error) {
	var diags []Diagnostic
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			for _, ex := range exemptDirs {
				if rel == ex {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		fds, perr := CheckSource(fset, path, src)
		if perr != nil {
			return perr
		}
		diags = append(diags, fds...)
		return nil
	})
	return diags, err
}

// CheckSource checks one file's source text (the unit CheckDir applies
// per file, exposed for tests).
func CheckSource(fset *token.FileSet, filename string, src []byte) ([]Diagnostic, error) {
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	// Local names under which a property-value provider is imported:
	// "props" for the usual import, plus any alias.
	aliases := map[string]bool{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		pkgName, ok := valueProviders[path]
		if !ok {
			continue
		}
		if imp.Name != nil {
			aliases[imp.Name.Name] = true
		} else {
			aliases[pkgName] = true
		}
	}
	if len(aliases) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	report := func(n ast.Node, msg string) {
		diags = append(diags, Diagnostic{Pos: fset.Position(n.Pos()), Message: msg})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isRawPropMap(n.Type, aliases) {
				report(n, "raw property-map literal; build property sets with props.New or props.Builder")
			}
		case *ast.CallExpr:
			fn, ok := n.Fun.(*ast.Ident)
			if ok && fn.Name == "make" && len(n.Args) > 0 && isRawPropMap(n.Args[0], aliases) {
				report(n, "raw property-map make; build property sets with props.New or props.Builder")
			}
		}
		return true
	})
	return diags, nil
}

// docDirs are directory prefixes (relative to the repo root, slash
// separated) whose packages must document every exported top-level
// symbol; the walk is recursive, so internal/storage covers
// internal/storage/wal (the write-ahead log's record framing and
// recovery contract) too. The storage package is the reference
// implementation of the on-disk format and the scan engine; serve and
// resil are the operational surface (endpoints, headers, admission and
// degradation semantics) documented in DESIGN.md — their godoc is
// treated as part of that documentation. incr holds the materialized
// zoom views whose patch-vs-fallback rules DESIGN.md specifies; its
// godoc must state those contracts next to the code that enforces
// them. core holds the model, the representations and the zoom kernels
// and per-entity partial that incr and shard call.
var docDirs = []string{"internal/core", "internal/storage", "internal/serve", "internal/resil", "internal/incr", "internal/shard"}

// CheckDocs walks the docDirs under root and reports every exported
// top-level symbol (func, method, type, const, var) that has no doc
// comment. A doc comment on a grouped declaration covers the whole
// group. Test files are exempt.
func CheckDocs(root string) ([]Diagnostic, error) {
	return checkSources(root, docDirs, CheckDocsSource)
}

// checkSources applies check to every non-test .go file under the
// given directories of root (recursively, skipping testdata).
func checkSources(root string, dirs []string, check func(*token.FileSet, string, []byte) ([]Diagnostic, error)) ([]Diagnostic, error) {
	var diags []Diagnostic
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			fds, perr := check(fset, path, src)
			if perr != nil {
				return perr
			}
			diags = append(diags, fds...)
			return nil
		})
		if err != nil {
			return diags, err
		}
	}
	return diags, nil
}

// sortDirs are the packages between keyed records and response bytes
// (and the storage writers beside them), where a sort runs per entity,
// per group or per request — incremental views and scatter merges
// included. The walk is recursive.
var sortDirs = []string{"internal/core", "internal/temporal", "internal/dataflow", "internal/props", "internal/serve", "internal/storage", "internal/incr", "internal/shard"}

// CheckSorts walks the sortDirs under root and reports every call of
// sort.Slice or sort.SliceStable. Test files are exempt.
func CheckSorts(root string) ([]Diagnostic, error) {
	return checkSources(root, sortDirs, CheckSortsSource)
}

// CheckSortsSource checks one file's source text for reflective sort
// calls (the unit CheckSorts applies per file, exposed for tests). The
// sort package is recognised through any import alias.
func CheckSortsSource(fset *token.FileSet, filename string, src []byte) ([]Diagnostic, error) {
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	sortName := ""
	for _, imp := range f.Imports {
		if imp.Path.Value != `"sort"` {
			continue
		}
		sortName = "sort"
		if imp.Name != nil {
			sortName = imp.Name.Name
		}
	}
	if sortName == "" {
		return nil, nil
	}
	var diags []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Slice" && sel.Sel.Name != "SliceStable") {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == sortName {
			diags = append(diags, Diagnostic{
				Pos:     fset.Position(sel.Pos()),
				Message: "sort." + sel.Sel.Name + " allocates a reflection swapper per call; use slices.SortFunc or slices.SortStableFunc",
			})
		}
		return true
	})
	return diags, nil
}

// CheckDocsSource checks one file's source text for undocumented
// exported symbols (the unit CheckDocs applies per file, exposed for
// tests).
func CheckDocsSource(fset *token.FileSet, filename string, src []byte) ([]Diagnostic, error) {
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var diags []Diagnostic
	report := func(n ast.Node, kind, name string) {
		diags = append(diags, Diagnostic{
			Pos:     fset.Position(n.Pos()),
			Message: fmt.Sprintf("exported %s %s has no doc comment", kind, name),
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			kind := "function"
			if d.Recv != nil {
				// Methods are part of the documented API only when
				// their receiver type is itself exported; exported
				// method names on unexported types (Error, Write, …)
				// just satisfy interfaces.
				if !ast.IsExported(receiverTypeName(d.Recv)) {
					continue
				}
				kind = "method"
			}
			report(d, kind, d.Name.Name)
		case *ast.GenDecl:
			if d.Doc != nil {
				continue // a group doc covers every spec in the group
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil {
						report(s, "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report(s, d.Tok.String(), name.Name)
							break
						}
					}
				}
			}
		}
	}
	return diags, nil
}

// receiverTypeName extracts the base type name of a method receiver
// ("T" from T, *T, T[P] or *T[P]); empty when the shape is unexpected.
func receiverTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	expr := recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// isRawPropMap reports whether expr is the type map[string]P.Value for
// an imported property-value provider P.
func isRawPropMap(expr ast.Expr, aliases map[string]bool) bool {
	m, ok := expr.(*ast.MapType)
	if !ok {
		return false
	}
	k, ok := m.Key.(*ast.Ident)
	if !ok || k.Name != "string" {
		return false
	}
	sel, ok := m.Value.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Value" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && aliases[pkg.Name]
}
