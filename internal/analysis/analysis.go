// Package analysis is qlint's analyzer framework: a deliberately small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface the repo's domain analyzers need. The build environment pins the
// module to the standard library, so instead of importing x/tools the
// package defines the same shapes (Analyzer, Pass, Diagnostic) on top of
// go/ast + go/types, loads packages itself (see load.go), and keeps the
// analyzer Run functions written in the exact style of x/tools analyzers —
// porting them onto the real framework is a mechanical change of import
// path if the dependency ever becomes available.
//
// The analyzers themselves encode the simulator's cross-cutting invariants
// (DESIGN.md §10): checkpoint durability goes through the
// write-temp-fsync-rename commit helper (atomicrename), storage I/O goes
// through the fsio seam (fsops) and keeps its error chains (errwrap),
// telemetry handles are only touched through their nil-safe methods
// (nilsafetelemetry), tests restore the process globals they mutate
// (globalcleanup), //qusim:hot kernel loops stay allocation-free
// (hotalloc), and every declaration of an internal package is reachable
// from the module's programs, not only from tests (deadcode). That every
// rank enters the same collective sequence is checked at run time, where
// the ranks meet (internal/mpi).
//
// Suppression: a comment of the form
//
//	//qlint:ignore <analyzer> <reason>
//
// silences that analyzer on the same line, on the line below (when the
// directive stands alone), or — when it appears in a function's doc
// comment — throughout that function. The reason is mandatory; a
// reason-less directive is itself a diagnostic, so every suppression in
// the tree documents why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one qlint check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //qlint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `qlint -help` prints: the
	// invariant enforced and the failure it prevents.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one type-checked package (a "unit": a package's sources,
// optionally merged with its in-package test files, or an external _test
// package) through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	unit  *Unit
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the stable diagnostic format golden tests pin down:
// path:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns every qlint analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicRename,
		DeadCode,
		ErrWrap,
		FSOps,
		GlobalCleanup,
		HotAlloc,
		NilSafeTelemetry,
	}
}

// byName resolves analyzer names (for -only selection and for validating
// //qlint:ignore directives).
func byName() map[string]*Analyzer {
	m := make(map[string]*Analyzer)
	for _, a := range All() {
		m[a.Name] = a
	}
	return m
}

// Select returns the analyzers named in names (comma-split upstream), or
// an error naming the first unknown one. An empty list selects all.
func Select(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	m := byName()
	var out []*Analyzer
	for _, n := range names {
		a, ok := m[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, knownNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func knownNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// RunConfig tunes one RunUnit invocation.
type RunConfig struct {
	// StrictIgnores turns stale //qlint:ignore directives — ones whose
	// analyzer ran but produced no diagnostic they could suppress — into
	// diagnostics of their own, so dead suppressions are exit-code
	// visible instead of rotting in place.
	StrictIgnores bool
}

// RunUnit applies the analyzers to one loaded unit and returns the
// surviving diagnostics: suppressions applied, directive errors appended.
func RunUnit(u *Unit, analyzers []*Analyzer, cfg RunConfig) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			unit:     u,
			diags:    &raw,
		}
		a.Run(pass)
	}
	dirs, dirDiags := collectDirectives(u)
	out := filterSuppressed(raw, dirs)
	out = append(out, dirDiags...)
	if cfg.StrictIgnores {
		ran := map[string]bool{}
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		for _, dir := range dirs {
			// Only judge directives whose analyzer actually ran this
			// invocation: under -only a subset, the others are unknown,
			// not stale.
			if dir.used || !ran[dir.analyzer] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "qlint",
				Message: fmt.Sprintf("stale qlint:ignore: no %s diagnostic fires here anymore — delete the directive",
					dir.analyzer),
			})
		}
	}
	return out
}

// SortDiagnostics orders diagnostics for deterministic output.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
