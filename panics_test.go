package qusim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The panic ratchet. panicSites is the committed number of panic( calls in
// the non-test Go files of each package under internal/. Bad input is meant
// to end in a classified error, never a panic, so a count may only go down:
// TestPanicRatchet fails when a package has more sites than its row, and
// also when it has fewer, so that the change which removes a site lowers
// its row in the same diff. Packages without a row have none.
var panicSites = map[string]int{
	"internal/circuit":  9,
	"internal/emulate":  1,
	"internal/f32vec":   2,
	"internal/gate":     8,
	"internal/kernels":  11,
	"internal/mpi":      12,
	"internal/schedule": 2,
	"internal/statevec": 5,
	"internal/verify":   2,
}

// countPanics maps each package directory under root/internal to the
// number of calls of the builtin panic in its non-test files.
func countPanics(root string) (map[string]int, error) {
	counts := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					counts[filepath.ToSlash(rel)]++
				}
			}
			return true
		})
		return nil
	})
	return counts, err
}

func TestPanicRatchet(t *testing.T) {
	got, err := countPanics(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for pkg := range got {
		pkgs = append(pkgs, pkg)
	}
	for pkg := range panicSites {
		if _, ok := got[pkg]; !ok {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Strings(pkgs)
	total := 0
	for _, pkg := range pkgs {
		total += got[pkg]
		switch want := panicSites[pkg]; {
		case got[pkg] > want:
			t.Errorf("%s: %d panic( sites, the table allows %d: return an error instead", pkg, got[pkg], want)
		case got[pkg] < want:
			t.Errorf("%s: %d panic( sites, the table says %d: lower its row in panicSites", pkg, got[pkg], want)
		}
	}
	t.Logf("%d panic( sites in non-test internal/ code", total)
}
