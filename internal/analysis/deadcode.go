package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadCode reports the package-level declarations of internal packages that
// no non-test code of the module reaches (DESIGN.md §10.7): roots are the
// packages outside internal/ or named main, init and _; edges are non-test
// identifier uses, and the methods of a live type that an interface names.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc: "package-level declarations of internal packages must be reachable from the module's programs; " +
		"code only tests run is dead weight that every refactor still has to carry",
	Run: runDeadCode,
}

func runDeadCode(pass *Pass) {
	u := pass.unit
	if isRootPkg(u.Pkg) {
		return
	}
	live, err := u.loader.liveDecls()
	if err != nil {
		pass.Reportf(u.Files[0].Package, "cannot build the module's reachability graph: %v", err)
		return
	}
	eachDecl(u, func(name *ast.Ident, _ ast.Node) {
		if key := declKey(u.Info.Defs[name]); !isRootDecl(name) && !live[key] {
			pass.Reportf(name.Pos(), "%s is unreachable: no non-test code of the module's programs uses it — "+
				"delete it, or move it into the _test.go files that do", key[len(u.ImportPath)+1:])
		}
	})
}

// isRootPkg reports whether every declaration of pkg is a root.
func isRootPkg(pkg *types.Package) bool {
	return pkg.Name() == "main" || !strings.Contains("/"+pkg.Path()+"/", "/internal/")
}

// isRootDecl reports whether a declaration is a root wherever it stands.
func isRootDecl(name *ast.Ident) bool { return name.Name == "init" || name.Name == "_" }

// eachDecl calls fn with the name and syntax (a spec for each of its names)
// of every package-level declaration in the unit's non-test files.
func eachDecl(u *Unit, fn func(name *ast.Ident, syntax ast.Node)) {
	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						fn(s.Name, s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							fn(n, s)
						}
					}
				}
			}
		}
	}
}

// declKey names a package-level object or a method alike in every type-check
// of its package ("path.Name", "path.Type.Method"), anything else "".
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := recvNamed(fn.Origin()); recv != "" {
			return fn.Pkg().Path() + "." + recv + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// declGraph is the module's reference graph over declKeys, "" the roots.
type declGraph struct {
	edges   map[string][]string // declaration → what its syntax uses
	methods map[string][]string // type → its method names
	ifaces  map[string]bool     // method names of every interface seen
	seen    map[any]bool        // units (by import path) and imports already added
}

// liveDecls returns what the roots of the whole module reach, and of any
// other directory the loader has loaded (a fixture corpus, say).
func (l *Loader) liveDecls() (map[string]bool, error) {
	if l.graph == nil {
		if _, err := l.LoadPackages(); err != nil {
			return nil, err
		}
		l.graph = &declGraph{edges: map[string][]string{}, methods: map[string][]string{},
			ifaces: map[string]bool{}, seen: map[any]bool{}}
	}
	for _, units := range l.units {
		for _, u := range units {
			l.graph.add(u)
		}
	}
	return l.graph.reach(), nil
}

func (g *declGraph) add(u *Unit) {
	if g.seen[u.ImportPath] {
		return
	}
	g.seen[u.ImportPath] = true
	root := isRootPkg(u.Pkg)
	eachDecl(u, func(name *ast.Ident, syntax ast.Node) {
		key := declKey(u.Info.Defs[name])
		if root || isRootDecl(name) {
			key = ""
		} else if fd, ok := syntax.(*ast.FuncDecl); ok && fd.Recv != nil {
			typ := key[:strings.LastIndexByte(key, '.')]
			g.methods[typ] = append(g.methods[typ], name.Name)
		}
		ast.Inspect(syntax, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := declKey(u.Info.Uses[id]); k != "" && k != key {
					g.edges[key] = append(g.edges[key], k)
				}
			}
			return true
		})
	})
	for _, tv := range u.Info.Types {
		g.addIface(tv.Type)
	}
	g.addImportIfaces(u.Pkg)
}

// addImportIfaces records the interfaces of pkg's imports, transitively.
func (g *declGraph) addImportIfaces(pkg *types.Package) {
	for _, imp := range pkg.Imports() {
		if !g.seen[imp] {
			g.seen[imp] = true
			for _, name := range imp.Scope().Names() {
				g.addIface(imp.Scope().Lookup(name).Type())
			}
			g.addImportIfaces(imp)
		}
	}
}

func (g *declGraph) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			g.ifaces[it.Method(i).Name()] = true
		}
	}
}

// reach walks the graph from the roots.
func (g *declGraph) reach() map[string]bool {
	live := map[string]bool{}
	for work := []string{""}; len(work) > 0; {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if live[k] {
			continue
		}
		live[k] = true
		work = append(work, g.edges[k]...)
		for _, m := range g.methods[k] {
			if g.ifaces[m] {
				work = append(work, k+"."+m)
			}
		}
	}
	return live
}
