package analysis

import "testing"

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "errwrap", Message: "msg"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "a/b.go:3:7: errwrap: msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSortDiagnosticsOrder(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) Diagnostic {
		d := Diagnostic{Analyzer: analyzer, Message: msg}
		d.Pos.Filename, d.Pos.Line, d.Pos.Column = file, line, col
		return d
	}
	ds := []Diagnostic{
		mk("b.go", 1, 1, "a", "m"),
		mk("a.go", 2, 1, "a", "m"),
		mk("a.go", 1, 2, "a", "m"),
		mk("a.go", 1, 1, "b", "m"),
		mk("a.go", 1, 1, "a", "n"),
		mk("a.go", 1, 1, "a", "m"),
	}
	SortDiagnostics(ds)
	want := []string{
		"a.go:1:1: a: m",
		"a.go:1:1: a: n",
		"a.go:1:1: b: m",
		"a.go:1:2: a: m",
		"a.go:2:1: a: m",
		"b.go:1:1: a: m",
	}
	for i, w := range want {
		if ds[i].String() != w {
			t.Errorf("position %d: %q, want %q", i, ds[i].String(), w)
		}
	}
}
