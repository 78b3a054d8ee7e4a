package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked body of code an analyzer runs over: a package's
// library sources merged with its in-package test files, or an external
// _test package. Merging the test files into the library unit mirrors how
// `go test` compiles the package, so analyzers that care about tests
// (globalcleanup) and analyzers that care about library code see one
// consistent view without analyzing the same file twice.
type Unit struct {
	Fset       *token.FileSet
	Dir        string
	ImportPath string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	loader     *Loader
}

// Loader parses and type-checks the module's packages using only the
// standard library: intra-module imports are resolved by walking the
// module tree, and standard-library imports go through go/importer's
// source importer (shared across all units, so the stdlib is type-checked
// once per process). There is deliberately no support for third-party
// dependencies — the module has none, and growing some should be a
// conscious decision, not a linter side effect.
type Loader struct {
	Fset   *token.FileSet
	root   string // module root (directory containing go.mod)
	module string // module path from go.mod

	stdlib types.ImporterFrom
	cache  map[string]*types.Package // import path → library-only package
	busy   map[string]bool           // cycle guard for cache fills
	units  map[string][]*Unit        // directory → its loaded units
	graph  *declGraph                // the module's references, for deadcode
}

// NewLoader creates a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   root,
		module: module,
		stdlib: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:  map[string]*types.Package{},
		busy:   map[string]bool{},
		units:  map[string][]*Unit{},
	}, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("qlint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("qlint: no module directive in %s", gomod)
}

// LoadPackages walks the module tree below root and loads every package
// directory (skipping testdata, vendor, hidden and tool-output dirs),
// returning one unit per package plus one per external test package.
func (l *Loader) LoadPackages() ([]*Unit, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "bin") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var units []*Unit
	for _, dir := range dirs {
		us, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return units, nil
}

// parsedDir is a directory's files split the way `go test` builds them.
type parsedDir struct {
	lib   []*ast.File // non-test files
	tests []*ast.File // in-package _test.go files
	xtest []*ast.File // package foo_test files
}

func (l *Loader) parseDir(dir string) (*parsedDir, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pd := &parsedDir{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Files the default build leaves out (another GOARCH's, or a build
		// tag's such as purego) would redeclare what their twins declare.
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test") && strings.HasSuffix(name, "_test.go"):
			pd.xtest = append(pd.xtest, f)
		case strings.HasSuffix(name, "_test.go"):
			pd.tests = append(pd.tests, f)
		default:
			pd.lib = append(pd.lib, f)
		}
	}
	return pd, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("qlint: %s is outside module %s", dir, l.module)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// LoadDir loads one package directory into analyzer units: the library
// package merged with its in-package tests, plus (when present) the
// external test package. A directory is loaded once per Loader.
func (l *Loader) LoadDir(dir string) ([]*Unit, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if us, ok := l.units[dir]; ok {
		return us, nil
	}
	pd, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	if len(pd.lib)+len(pd.tests) > 0 {
		u, err := l.check(path, dir, append(append([]*ast.File{}, pd.lib...), pd.tests...))
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(pd.xtest) > 0 {
		// The external test package imports the library build of the package
		// under test, the one every other package it imports sees too, so it
		// may import the package's own importers (no export_test.go shims).
		xu, err := l.check(path+"_test", dir, pd.xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, xu)
	}
	l.units[dir] = units
	return units, nil
}

// check type-checks files as one package.
func (l *Loader) check(path, dir string, files []*ast.File) (*Unit, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: &unitImporter{l: l}}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("qlint: type-checking %s: %w", path, err)
	}
	return &Unit{Fset: l.Fset, Dir: dir, ImportPath: path, Files: files, Pkg: pkg, Info: info, loader: l}, nil
}

// importLib returns the library-only package for an intra-module import
// path, type-checking and caching it on first use.
func (l *Loader) importLib(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("qlint: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	rel := strings.TrimPrefix(path, l.module)
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	pd, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(pd.lib) == 0 {
		return nil, fmt.Errorf("qlint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: &unitImporter{l: l}}
	pkg, err := conf.Check(path, l.Fset, pd.lib, nil)
	if err != nil {
		return nil, fmt.Errorf("qlint: type-checking dependency %s: %w", path, err)
	}
	l.cache[path] = pkg
	return pkg, nil
}

// unitImporter resolves one unit's imports: intra-module packages, then the
// shared stdlib source importer.
type unitImporter struct {
	l *Loader
}

func (ui *unitImporter) Import(path string) (*types.Package, error) {
	return ui.ImportFrom(path, "", 0)
}

func (ui *unitImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l := ui.l
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		return l.importLib(path)
	}
	if strings.Contains(strings.SplitN(path, "/", 2)[0], ".") {
		return nil, fmt.Errorf("qlint: external dependency %q is not supported (the module is stdlib-only)", path)
	}
	return ui.stdlibImport(path)
}

func (ui *unitImporter) stdlibImport(path string) (*types.Package, error) {
	return ui.l.stdlib.ImportFrom(path, ui.l.root, 0)
}
