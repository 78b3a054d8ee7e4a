// Command qlint is the repo's domain linter: a multichecker over the
// internal/analysis suite that enforces the simulator's durability,
// storage-seam, telemetry and hot-loop invariants and keeps internal code
// reachable from the module's programs (DESIGN.md §10).
//
//	qlint [-only a,b] [-strict-ignores] [-json out] [-github] [dir | ./...]...
//
// Arguments are module-relative package patterns: `./...` (the default)
// lints every package under the module root, and a directory path lints
// that one package directory. deadcode judges a package against the whole
// module whatever the arguments, so it loads every package either way. Diagnostics print one per line as
//
//	path:line:col: analyzer: message
//
// with paths relative to the module root. Exit status: 0 clean, 1 when
// diagnostics were reported, 2 on usage or load errors.
//
// -strict-ignores additionally reports stale //qlint:ignore directives
// whose analyzer no longer fires at the suppressed site. -json writes the
// findings machine-readably to a file for CI artifacts, and -github
// mirrors each finding as a GitHub Actions ::error annotation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"qusim/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	strictIgnores := fs.Bool("strict-ignores", false, "report stale //qlint:ignore directives whose analyzer no longer fires")
	jsonOut := fs.String("json", "", "write findings as JSON to this file")
	githubFlag := fs.Bool("github", false, "emit GitHub Actions ::error annotations alongside diagnostics")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: qlint [-only analyzers] [-strict-ignores] [-json out] [-github] [dir | ./...]...\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := analysis.Select(splitComma(*only))
	if err != nil {
		fmt.Fprintln(stderr, "qlint:", err)
		return 2
	}

	rest := fs.Args()
	if len(rest) == 0 {
		rest = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "qlint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "qlint:", err)
		return 2
	}

	var units []*analysis.Unit
	for _, pat := range rest {
		switch {
		case pat == "./..." || pat == "...":
			us, err := loader.LoadPackages()
			if err != nil {
				fmt.Fprintln(stderr, "qlint:", err)
				return 2
			}
			units = append(units, us...)
		default:
			us, err := loader.LoadDir(pat)
			if err != nil {
				fmt.Fprintln(stderr, "qlint:", err)
				return 2
			}
			units = append(units, us...)
		}
	}

	cfg := analysis.RunConfig{StrictIgnores: *strictIgnores}
	var diags []analysis.Diagnostic
	for _, u := range units {
		diags = append(diags, analysis.RunUnit(u, analyzers, cfg)...)
	}
	analysis.SortDiagnostics(diags)

	for _, d := range diags {
		fmt.Fprintln(stdout, relativize(d, loader.Root()))
		if *githubFlag {
			fmt.Fprintln(stdout, githubAnnotation(d, loader.Root()))
		}
	}
	if *jsonOut != "" {
		if err := writeFindingsJSON(*jsonOut, diags, loader.Root()); err != nil {
			fmt.Fprintln(stderr, "qlint:", err)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "qlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// githubAnnotation renders a diagnostic as a GitHub Actions workflow
// command so findings surface inline on pull-request diffs.
func githubAnnotation(d analysis.Diagnostic, root string) string {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("::error file=%s,line=%d,col=%d::%s: %s", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// jsonFinding is the machine-readable shape of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeFindingsJSON writes the findings to path as a JSON array (always
// an array, never null, so consumers can iterate without nil checks).
func writeFindingsJSON(path string, diags []analysis.Diagnostic, root string) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonFinding{
			File: file, Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// relativize renders a diagnostic with its path relative to root, for
// stable output regardless of where the checkout lives.
func relativize(d analysis.Diagnostic, root string) string {
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = filepath.ToSlash(rel)
	}
	return d.String()
}

func splitComma(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
