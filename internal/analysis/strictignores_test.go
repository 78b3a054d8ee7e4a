package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStrictIgnores pins the -strict-ignores contract on the staleignore
// fixture (one live fsops suppression, one whose diagnostic no longer
// fires): with the audit on, a directive whose diagnostic no longer fires
// is itself a finding; with it off, suppressions stay silent either way.
func TestStrictIgnores(t *testing.T) {
	units := loadCorpus(t, "staleignore")

	var lax, strict []Diagnostic
	for _, u := range units {
		lax = append(lax, RunUnit(u, All(), RunConfig{})...)
		strict = append(strict, RunUnit(u, All(), RunConfig{StrictIgnores: true})...)
	}

	if len(lax) != 0 {
		for _, d := range lax {
			t.Errorf("without StrictIgnores, unexpected diagnostic %s:%d: %s: %s",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
	}

	if len(strict) != 1 {
		for _, d := range strict {
			t.Logf("got: %s:%d: %s: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
		t.Fatalf("with StrictIgnores, got %d diagnostics, want exactly 1 stale report", len(strict))
	}
	d := strict[0]
	if d.Analyzer != "qlint" {
		t.Errorf("stale report attributed to %q, want qlint", d.Analyzer)
	}
	if d.Pos.Line != 27 {
		t.Errorf("stale report at line %d, want 27 (the dead directive's own line)", d.Pos.Line)
	}
	if want := "stale qlint:ignore: no fsops diagnostic fires here anymore"; !strings.Contains(d.Message, want) {
		t.Errorf("stale report message %q does not contain %q", d.Message, want)
	}
}

// TestStrictIgnoresOnlySubset: a directive for an analyzer that did not
// run is never judged stale — `-only hotalloc -strict-ignores` must not
// condemn fsops suppressions it has no evidence about.
func TestStrictIgnoresOnlySubset(t *testing.T) {
	units := loadCorpus(t, "staleignore")
	subset, err := Select([]string{"hotalloc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		for _, d := range RunUnit(u, subset, RunConfig{StrictIgnores: true}) {
			t.Errorf("unexpected diagnostic under -only hotalloc: %s:%d: %s: %s",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
	}
}
