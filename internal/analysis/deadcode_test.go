package analysis

import (
	"path/filepath"
	"testing"
)

func TestDeadCodeCorpus(t *testing.T) { runCorpus(t, "deadcode") }

// TestDeadCodeStaleIgnore: a deadcode directive over a declaration that is
// reachable again suppresses nothing, and -strict-ignores says so.
func TestDeadCodeStaleIgnore(t *testing.T) {
	var stale []Diagnostic
	for _, u := range loadCorpus(t, "deadcode") {
		for _, d := range RunUnit(u, []*Analyzer{DeadCode}, RunConfig{StrictIgnores: true}) {
			if d.Analyzer == "qlint" {
				stale = append(stale, d)
			}
		}
	}
	if len(stale) != 1 || stale[0].Pos.Line != 66 || filepath.Base(stale[0].Pos.Filename) != "deadcode.go" {
		t.Fatalf("stale reports %v, want one at deadcode.go:66 (the directive over revived)", stale)
	}
}

// TestDeadCodeBenchIsRoot: bench/ is a nested module, but the loader walks
// it as qusim/bench and every declaration there is a root, so the internal
// names the benchmark pins stay live.
func TestDeadCodeBenchIsRoot(t *testing.T) {
	l, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.LoadPackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if u.ImportPath != "qusim/bench" {
			continue
		}
		if !isRootPkg(u.Pkg) {
			t.Fatal("qusim/bench is not a root package")
		}
		if _, err := l.liveDecls(); err != nil {
			t.Fatal(err)
		}
		if !l.graph.seen["qusim/bench"] {
			t.Fatal("qusim/bench is not in the reachability graph")
		}
		return
	}
	t.Fatal("the module walk does not load qusim/bench")
}
