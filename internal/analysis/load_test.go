package analysis

import (
	"path/filepath"
	"testing"
)

// repoRoot resolves the module root from this package's directory.
func repoRoot(t testing.TB) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestLoaderTypechecksRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	l, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.LoadPackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 20 {
		t.Fatalf("loaded only %d units from the module, expected the full package tree", len(units))
	}
	seen := map[string]bool{}
	for _, u := range units {
		seen[u.ImportPath] = true
		if u.Pkg == nil || u.Info == nil || len(u.Files) == 0 {
			t.Errorf("unit %s incompletely loaded", u.ImportPath)
		}
	}
	for _, want := range []string{"qusim", "qusim/internal/mpi", "qusim/internal/ckpt", "qusim/internal/dist"} {
		if !seen[want] {
			t.Errorf("missing unit %s (have %d units)", want, len(units))
		}
	}
}

func TestLoaderExternalTestPackage(t *testing.T) {
	l, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.LoadDir(filepath.Join(repoRoot(t), "internal", "gate"))
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("no units for internal/gate")
	}
}
