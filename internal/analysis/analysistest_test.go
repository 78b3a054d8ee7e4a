package analysis

// The corpus harness: each analyzer has a fixture package under
// testdata/src/<name> whose files carry x/tools-style expectations —
//
//	code() // want `regexp` `another regexp`
//
// Each quoted (or backquoted) regexp must match exactly one diagnostic
// reported on that line, rendered as "analyzer: message" so expectations
// can pin the analyzer; every diagnostic must be claimed by a want. The
// fixtures double as the living specification: at least one flagged and
// one suppressed case per analyzer, with the suppression reasons written
// the way real ones should be.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testLoader returns the one Loader every test of this binary shares, so
// the standard library is type-checked from source once, not once per
// test. Tests do not run in parallel; the loader is not safe for
// concurrent use.
var testLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// loadCorpus loads testdata/src/<name> through the shared loader.
func loadCorpus(t *testing.T, name string) []*Unit {
	t.Helper()
	loader, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatalf("corpus %s loaded no units", name)
	}
	return units
}

// corpusDiagnostics loads testdata/src/<name> and returns the surviving
// diagnostics from running the given analyzers over its units.
func corpusDiagnostics(t *testing.T, name string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	var diags []Diagnostic
	for _, u := range loadCorpus(t, name) {
		diags = append(diags, RunUnit(u, analyzers, RunConfig{})...)
	}
	SortDiagnostics(diags)
	return diags
}

// wantRe matches the expectation tail of a corpus line.
var wantRe = regexp.MustCompile(`// want (.*)$`)

type wantExpect struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts the // want expectations from every .go file of a
// corpus directory.
func parseWants(t *testing.T, dir string) []*wantExpect {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantExpect
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			rest := strings.TrimSpace(m[1])
			for rest != "" {
				q, err := strconv.QuotedPrefix(rest)
				if err != nil {
					t.Fatalf("%s:%d: malformed want expectation %q", e.Name(), i+1, rest)
				}
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: unquoting %q: %v", e.Name(), i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, pat, err)
				}
				wants = append(wants, &wantExpect{file: e.Name(), line: i + 1, re: re})
				rest = strings.TrimSpace(rest[len(q):])
			}
		}
	}
	return wants
}

// runCorpus checks one analyzer's fixture package against its want
// expectations.
func runCorpus(t *testing.T, analyzerName string) {
	t.Helper()
	analyzers, err := Select([]string{analyzerName})
	if err != nil {
		t.Fatal(err)
	}
	diags := corpusDiagnostics(t, analyzerName, analyzers)
	wants := parseWants(t, filepath.Join("testdata", "src", analyzerName))
	if len(wants) == 0 {
		t.Fatalf("corpus %s has no want expectations", analyzerName)
	}

	for _, d := range diags {
		rendered := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		base := filepath.Base(d.Pos.Filename)
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == base && w.line == d.Pos.Line && w.re.MatchString(rendered) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic at %s:%d: %s", base, d.Pos.Line, rendered)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re.String())
		}
	}
}

func TestAtomicRenameCorpus(t *testing.T)     { runCorpus(t, "atomicrename") }
func TestFSOpsCorpus(t *testing.T)            { runCorpus(t, "fsops") }
func TestNilSafeTelemetryCorpus(t *testing.T) { runCorpus(t, "nilsafetelemetry") }
func TestGlobalCleanupCorpus(t *testing.T)    { runCorpus(t, "globalcleanup") }
func TestHotAllocCorpus(t *testing.T)         { runCorpus(t, "hotalloc") }
func TestErrWrapCorpus(t *testing.T)          { runCorpus(t, "errwrap") }

// TestDirectiveDiagnostics pins the directive parser's own diagnostics:
// malformed //qlint:ignore comments are findings, not silent no-ops. The
// diagnostics land on the comment lines themselves, so the expectations
// are spelled here rather than as end-of-line want comments.
func TestDirectiveDiagnostics(t *testing.T) {
	diags := corpusDiagnostics(t, "qlintdirective", All())
	type expect struct {
		line int
		re   string
	}
	expects := []expect{
		{12, `^qlint: qlint:ignore needs an analyzer name and a reason$`},
		{18, `^qlint: qlint:ignore names unknown analyzer gofmtcheck \(have atomicrename, deadcode, errwrap, fsops, globalcleanup, hotalloc, nilsafetelemetry\)$`},
		{25, `^qlint: qlint:ignore globalcleanup needs a reason \(why does the invariant not apply here\?\)$`},
		// The multi-line edge case: a continuation comment on the next
		// line is not the directive's reason.
		{39, `^qlint: qlint:ignore globalcleanup needs a reason \(why does the invariant not apply here\?\)$`},
	}
	if len(diags) != len(expects) {
		for _, d := range diags {
			t.Logf("got: %s:%d: %s: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(expects))
	}
	for i, e := range expects {
		d := diags[i]
		rendered := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		if d.Pos.Line != e.line || !regexp.MustCompile(e.re).MatchString(rendered) {
			t.Errorf("diagnostic %d at line %d: %q does not match line %d %q", i, d.Pos.Line, rendered, e.line, e.re)
		}
	}
}
