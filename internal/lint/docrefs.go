package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// docRefFiles are the documents, relative to the repo root, whose
// backticked Go references CheckDocRefs resolves. EXPERIMENTS.md,
// CHANGES.md and ROADMAP.md are history: they name code as it was.
var docRefFiles = []string{"README.md", "DESIGN.md", "PAPER.md"}

// docRefSkipDirs are directories, relative to the repo root, whose Go
// comments CheckDocRefs does not read: the benchmark harness is
// versioned with its recorded baselines, not with the library.
var docRefSkipDirs = []string{"benchmark"}

// refPattern matches pkg.Name and pkg.Name.Member: a lowercase package
// name, then an exported name, then optionally one member name. A
// lowercase second part (pkg.name) is a metric or fault-site name and
// does not match.
var refPattern = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)

// backticked matches one inline code span.
var backticked = regexp.MustCompile("`[^`\n]+`")

// pkgSymbols is the syntactic symbol table of one package name: its
// top-level names, and the members (methods, fields) of each of its
// types. open marks types whose member set a syntactic pass cannot
// close: aliases and types with embedded fields.
type pkgSymbols struct {
	names   map[string]bool
	members map[string]map[string]bool
	open    map[string]bool
}

// CheckDocRefs resolves every Go reference of the form pkg.Name or
// pkg.Name.Member — pkg a package under internal/ or the facade,
// tgraph — that appears in a backticked span or a fenced block of the
// docRefFiles, or anywhere in a Go comment, against the declarations
// of the module under root, and reports each one that names nothing.
func CheckDocRefs(root string) ([]Diagnostic, error) {
	syms, err := moduleSymbols(root)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, name := range docRefFiles {
		path := filepath.Join(root, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		diags = append(diags, markdownRefs(path, src, syms)...)
	}
	fset := token.NewFileSet()
	err = walkGo(root, func(path string, src []byte) error {
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for i, line := range strings.Split(c.Text, "\n") {
					p := pos
					p.Line += i
					diags = append(diags, lineRefs(p, line, syms)...)
				}
			}
		}
		return nil
	})
	return diags, err
}

// markdownRefs checks the inline code spans and fenced blocks of one
// markdown file.
func markdownRefs(path string, src []byte, syms map[string]*pkgSymbols) []Diagnostic {
	var diags []Diagnostic
	fenced := false
	sc := bufio.NewScanner(bytes.NewReader(src))
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		pos := token.Position{Filename: path, Line: n}
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			diags = append(diags, lineRefs(pos, line, syms)...)
			continue
		}
		for _, span := range backticked.FindAllString(line, -1) {
			diags = append(diags, lineRefs(pos, span, syms)...)
		}
	}
	return diags
}

// lineRefs reports every reference in text that does not resolve.
func lineRefs(pos token.Position, text string, syms map[string]*pkgSymbols) []Diagnostic {
	var diags []Diagnostic
	for _, m := range refPattern.FindAllStringSubmatch(text, -1) {
		ps, ok := syms[m[1]]
		if !ok {
			continue
		}
		switch {
		case !ps.names[m[2]]:
			diags = append(diags, Diagnostic{Pos: pos, Message: fmt.Sprintf("%s.%s names no declaration of package %s", m[1], m[2], m[1])})
		case m[3] != "" && ps.members[m[2]] != nil && !ps.open[m[2]] && !ps.members[m[2]][m[3]]:
			diags = append(diags, Diagnostic{Pos: pos, Message: fmt.Sprintf("%s.%s.%s: type %s.%s has no member %s", m[1], m[2], m[3], m[1], m[2], m[3])})
		}
	}
	return diags
}

// moduleSymbols parses every non-test Go file of the facade (package
// tgraph) and of the packages under internal/, keyed by package name.
func moduleSymbols(root string) (map[string]*pkgSymbols, error) {
	syms := map[string]*pkgSymbols{}
	fset := token.NewFileSet()
	err := walkGo(root, func(path string, src []byte) error {
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if strings.HasSuffix(rel, "_test.go") || (strings.Contains(rel, "/") && !strings.HasPrefix(rel, "internal/")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		ps := syms[f.Name.Name]
		if ps == nil {
			ps = &pkgSymbols{names: map[string]bool{}, members: map[string]map[string]bool{}, open: map[string]bool{}}
			syms[f.Name.Name] = ps
		}
		ps.add(f)
		return nil
	})
	return syms, err
}

// add records the declarations of one file.
func (ps *pkgSymbols) add(f *ast.File) {
	memberSet := func(t string) map[string]bool {
		if ps.members[t] == nil {
			ps.members[t] = map[string]bool{}
		}
		return ps.members[t]
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ps.names[d.Name.Name] = true
			} else if t := receiverTypeName(d.Recv); t != "" {
				memberSet(t)[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					name := s.Name.Name
					ps.names[name] = true
					ms := memberSet(name)
					if s.Assign.IsValid() {
						ps.open[name] = true
					}
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							ps.open[name] = true // embedded: promoted members
						}
						for _, n := range fl.Names {
							ms[n.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ps.names[n.Name] = true
					}
				}
			}
		}
	}
}

// walkGo calls visit with every .go file under root, skipping .git,
// testdata and docRefSkipDirs.
func walkGo(root string, visit func(path string, src []byte) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			for _, skip := range docRefSkipDirs {
				if filepath.ToSlash(rel) == skip {
					return filepath.SkipDir
				}
			}
			if d.Name() == ".git" || d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return visit(path, src)
	})
}
