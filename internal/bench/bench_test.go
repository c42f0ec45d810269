package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"coalesce", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "load", "table1"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, ok := ByID("fig10"); !ok {
		t.Error("ByID(fig10) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

// TestAllExperimentsRunTiny executes every experiment at a tiny scale
// to catch integration regressions.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Scale: 0.02, Parallelism: 2, Seed: 1}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				s := tb.String()
				if !strings.Contains(s, tb.Header[0]) {
					t.Errorf("table rendering lost the header: %s", s)
				}
			}
		})
	}
}

func TestConfigScale(t *testing.T) {
	if (Config{}).scale(100) != 100 {
		t.Error("zero scale must default to 1.0")
	}
	if (Config{Scale: 0.5}).scale(100) != 50 {
		t.Error("scale 0.5")
	}
	if (Config{Scale: 0.0001}).scale(10) != 1 {
		t.Error("scale floor must be 1")
	}
}

func TestTableString(t *testing.T) {
	tb := Table{
		Title:  "T",
		Note:   "note",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"xxxxxxx", "1"}},
	}
	s := tb.String()
	for _, want := range []string{"== T ==", "note", "long-column", "xxxxxxx"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}
