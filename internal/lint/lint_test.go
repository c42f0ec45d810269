package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func check(t *testing.T, src string) []Diagnostic {
	t.Helper()
	diags, err := CheckSource(token.NewFileSet(), "src.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestFlagsRawMapLiteral(t *testing.T) {
	src := `package x
import "repro/internal/props"
var m = map[string]props.Value{"type": props.StringVal("node")}
`
	if got := check(t, src); len(got) != 1 {
		t.Fatalf("diagnostics = %v, want 1", got)
	}
}

func TestFlagsRawMapMake(t *testing.T) {
	src := `package x
import "repro/internal/props"
func f() { _ = make(map[string]props.Value, 4) }
`
	if got := check(t, src); len(got) != 1 {
		t.Fatalf("diagnostics = %v, want 1", got)
	}
}

func TestFlagsAliasedImport(t *testing.T) {
	src := `package x
import pp "repro/internal/props"
var m = map[string]pp.Value{}
`
	if got := check(t, src); len(got) != 1 {
		t.Fatalf("diagnostics = %v, want 1", got)
	}
}

func TestFlagsFacadeValue(t *testing.T) {
	src := `package x
import "repro"
func f() { _ = make(map[string]tgraph.Value) }
`
	if got := check(t, src); len(got) != 1 {
		t.Fatalf("diagnostics = %v, want 1", got)
	}
}

func TestAllowsAPIUsage(t *testing.T) {
	src := `package x
import "repro/internal/props"
var p = props.New("type", "node")
func f() props.Props {
	var b props.Builder
	b.Set("k", props.Int(1))
	return b.Build()
}
var other = map[string]int{"a": 1}
var unrelated = map[string]props.Kind{}
`
	if got := check(t, src); len(got) != 0 {
		t.Fatalf("diagnostics = %v, want none", got)
	}
}

func TestIgnoresFilesWithoutPropsImport(t *testing.T) {
	src := `package x
type Value struct{}
var m = map[string]Value{}
`
	if got := check(t, src); len(got) != 0 {
		t.Fatalf("diagnostics = %v, want none", got)
	}
}

func TestCheckDirSkipsExemptAndFlagsRest(t *testing.T) {
	root := t.TempDir()
	bad := `package a
import "repro/internal/props"
var m = map[string]props.Value{}
`
	exempt := `package props
import "repro/internal/props"
var m = map[string]props.Value{}
`
	write := func(rel, src string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/core/a.go", bad)
	write("internal/props/p.go", exempt)
	diags, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the internal/core violation", diags)
	}
	if filepath.ToSlash(diags[0].Pos.Filename) != filepath.ToSlash(filepath.Join(root, "internal/core/a.go")) {
		t.Fatalf("flagged %s, want internal/core/a.go", diags[0].Pos.Filename)
	}
}

// TestRepositoryIsClean runs the checker over the repository itself:
// the rule the lint enforces must hold in the codebase that ships it.
func TestRepositoryIsClean(t *testing.T) {
	diags, err := CheckDir("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func checkDocs(t *testing.T, src string) []Diagnostic {
	t.Helper()
	diags, err := CheckDocsSource(token.NewFileSet(), "src.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestDocsFlagsUndocumentedExports(t *testing.T) {
	src := `package x
func Exported() {}
type Thing struct{}
func (t Thing) Method() {}
const Answer = 42
var Global int
`
	got := checkDocs(t, src)
	if len(got) != 5 {
		t.Fatalf("diagnostics = %v, want 5", got)
	}
}

func TestDocsAcceptsDocumentedAndUnexported(t *testing.T) {
	src := `package x
// Exported does things.
func Exported() {}

// Thing is a thing.
type Thing struct{}

// Method acts.
func (t *Thing) Method() {}

// Grouped constants share one doc.
const (
	A = 1
	B = 2
)

var internal int
func helper() {}
`
	if got := checkDocs(t, src); len(got) != 0 {
		t.Fatalf("diagnostics = %v, want none", got)
	}
}

func TestDocsSkipsInterfaceMethodsOnUnexportedTypes(t *testing.T) {
	src := `package x
type wrapper struct{}
func (w *wrapper) Error() string { return "" }
func (w *wrapper) Write(p []byte) (int, error) { return len(p), nil }
type box[T any] struct{}
func (b box[T]) Get() T { var z T; return z }
`
	if got := checkDocs(t, src); len(got) != 0 {
		t.Fatalf("diagnostics = %v, want none", got)
	}
}

// TestRepositoryDocsAreClean runs the doc-coverage checker over the
// repository itself: the enforced packages must stay fully documented.
func TestRepositoryDocsAreClean(t *testing.T) {
	diags, err := CheckDocs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestSortsFlagsReflectiveSorts(t *testing.T) {
	src := `package x
import (
	"slices"
	"sort"
)
func f(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] })
	sort.Ints(xs)
	slices.Sort(xs)
}
`
	got, err := CheckSortsSource(token.NewFileSet(), "src.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Pos.Line != 7 || got[1].Pos.Line != 8 {
		t.Fatalf("diagnostics = %v, want the calls on lines 7 and 8", got)
	}
	aliased := `package x
import s "sort"
type sort struct{ Slice func() }
func f(xs []int, v sort) { s.Slice(xs, nil); v.Slice() }
`
	if got, _ := CheckSortsSource(token.NewFileSet(), "src.go", []byte(aliased)); len(got) != 1 {
		t.Fatalf("diagnostics = %v, want only the aliased sort.Slice", got)
	}
}

// TestRepositorySortsAreClean runs the sort checker over the
// repository itself.
func TestRepositorySortsAreClean(t *testing.T) {
	diags, err := CheckSorts("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDocRefsResolve builds a small module and checks which references
// CheckDocRefs reports: unresolved names and members in backticked
// spans, fenced blocks and Go comments, but not lowercase metric
// names, unknown package names, the history documents or the
// benchmark harness.
func TestDocRefsResolve(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/foo/foo.go": `package foo
// F is a function.
func F() {}
// T is a type.
type T struct{ A int }
// M is a method.
func (T) M() {}
// E embeds T.
type E struct{ T }
`,
		"facade.go":      "package tgraph\n// Uses foo.F and foo.Gone.\nfunc Open() {}\n",
		"benchmark/b.go": "package main\n// foo.Gone is the harness's business.\n",
		"README.md": "`foo.F` `foo.T.M` `foo.T.A` `foo.E.M` `foo.latency_ms` `bar.Thing`\n" +
			"`foo.G` and `foo.T.Z`, not foo.H outside backticks\n```go\ntgraph.Open(); tgraph.Close()\n```\n",
		"DESIGN.md":      "",
		"PAPER.md":       "",
		"EXPERIMENTS.md": "`foo.Old`\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := CheckDocRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, filepath.Base(d.Pos.Filename)+":"+strconv.Itoa(d.Pos.Line)+": "+d.Message)
	}
	want := []string{
		"README.md:2: foo.G names no declaration of package foo",
		"README.md:2: foo.T.Z: type foo.T has no member Z",
		"README.md:4: tgraph.Close names no declaration of package tgraph",
		"facade.go:2: foo.Gone names no declaration of package foo",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepositoryDocRefsResolve runs the reference checker over the
// repository itself.
func TestRepositoryDocRefsResolve(t *testing.T) {
	diags, err := CheckDocRefs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
