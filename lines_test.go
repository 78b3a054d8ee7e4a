package qusim_test

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The line ledger. LINES.txt gives every Go package directory of this
// module one row: the physical lines of its hand-written non-test files
// (.go without _test, and hand-written .s). A file whose first line is the
// "// Code generated … DO NOT EDIT." marker gets a row of its own, marked
// generated, and is left out of its package's row. Nested modules (bench/)
// and testdata trees are not counted. TestLineLedger fails on any row that
// differs from the tree, whichever way it moved, so growth is a reviewed
// diff of LINES.txt; `make lines` rewrites the file. An external test
// package: the ledger uses nothing of qusim.

var updateLedger = flag.Bool("update", false, "rewrite LINES.txt from the tree (make lines)")

const ledgerFile = "LINES.txt"

type ledgerRow struct {
	lines     int
	generated bool
}

// ledger maps a package directory ("." for the module root) or, for a
// generated file, the file's path, both slash-separated, to its row.
type ledger map[string]ledgerRow

// countLedger walks the module rooted at root.
func countLedger(root string) (ledger, error) {
	l := ledger{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".s" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		row := l[dir] // a directory of test files alone still gets a row
		if !strings.HasSuffix(path, "_test.go") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			n := bytes.Count(data, []byte("\n"))
			if len(data) > 0 && data[len(data)-1] != '\n' {
				n++
			}
			if isGenerated(data) {
				l[rel] = ledgerRow{lines: n, generated: true}
			} else {
				row.lines += n
			}
		}
		l[dir] = row
		return nil
	})
	return l, err
}

// isGenerated reports whether the file's first line is Go's generated-code
// marker.
func isGenerated(data []byte) bool {
	first, _, _ := bytes.Cut(data, []byte("\n"))
	return bytes.HasPrefix(first, []byte("// Code generated ")) && bytes.HasSuffix(first, []byte(" DO NOT EDIT."))
}

func (l ledger) keys() []string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// totals sums the hand-written and the generated rows.
func (l ledger) totals() (hand, generated int) {
	for _, r := range l {
		if r.generated {
			generated += r.lines
		} else {
			hand += r.lines
		}
	}
	return hand, generated
}

func (l ledger) format() []byte {
	var b bytes.Buffer
	hand, gen := l.totals()
	fmt.Fprintf(&b, "# Physical lines of hand-written non-test Go and assembly per package\n"+
		"# directory, and of each generated file (marked), in module qusim.\n"+
		"# TestLineLedger holds this file to the tree; `make lines` rewrites it.\n"+
		"# Totals: %d hand-written, %d generated.\n", hand, gen)
	for _, k := range l.keys() {
		r := l[k]
		fmt.Fprintf(&b, "%-36s %6d", k, r.lines)
		if r.generated {
			b.WriteString(" generated")
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func parseLedger(data []byte) (ledger, error) {
	l := ledger{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) == 2 || (len(f) == 3 && f[2] == "generated") {
			if n, err := strconv.Atoi(f[1]); err == nil {
				l[f[0]] = ledgerRow{lines: n, generated: len(f) == 3}
				continue
			}
		}
		return nil, fmt.Errorf("line %d: want \"<path> <lines> [generated]\", got %q", i+1, line)
	}
	return l, nil
}

// diffLedger names every row of want that the tree's ledger got does not
// match, as "row: old → new".
func diffLedger(want, got ledger) []string {
	union := ledger{}
	for k, r := range want {
		union[k] = r
	}
	for k, r := range got {
		union[k] = r
	}
	show := func(r ledgerRow, ok bool) string {
		switch {
		case !ok:
			return "absent"
		case r.generated:
			return strconv.Itoa(r.lines) + " generated"
		}
		return strconv.Itoa(r.lines)
	}
	var out []string
	for _, k := range union.keys() {
		w, inWant := want[k]
		g, inGot := got[k]
		if inWant != inGot || w != g {
			out = append(out, fmt.Sprintf("%s: %s → %s", k, show(w, inWant), show(g, inGot)))
		}
	}
	return out
}

func TestLineLedger(t *testing.T) {
	got, err := countLedger(".")
	if err != nil {
		t.Fatal(err)
	}
	hand, gen := got.totals()
	t.Logf("tree: %d hand-written lines, %d generated, %d rows", hand, gen, len(got))
	if *updateLedger {
		if err := os.WriteFile(ledgerFile, got.format(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatalf("%v (run `make lines`)", err)
	}
	want, err := parseLedger(data)
	if err != nil {
		t.Fatalf("%s: %v", ledgerFile, err)
	}
	for _, d := range diffLedger(want, got) {
		t.Errorf("%s row %s", ledgerFile, d)
	}
	if !bytes.Equal(data, got.format()) && !t.Failed() {
		t.Errorf("%s: rows match the tree but the file is not as `make lines` writes it", ledgerFile)
	}
	if t.Failed() {
		t.Log("if the change is intended, run `make lines` and commit LINES.txt with it")
	}
}

// TestLineLedgerRows moves a small module tree one way at a time and
// checks the row each move names.
func TestLineLedgerRows(t *testing.T) {
	const gen = "// Code generated by gen. DO NOT EDIT.\n"
	base := map[string]string{
		"go.mod":                "module m\n",
		"root.go":               "package m\n",
		"a/a.go":                "package a\n\nfunc A() {}\n",
		"a/a_test.go":           "package a\n\nfunc TestA() {}\n",
		"a/gen_amd64.s":         gen + "TEXT ·f(SB), 0, $0\n\tRET\n",
		"a/testdata/skip.go":    "package skip\n",
		"b/b.go":                "package b\n\nvar (\n\tx int\n)\n",
		"c/c.go":                "package c",
		"nested/go.mod":         "module n\n",
		"nested/n.go":           "package n\n",
		"t/only_test.go":        "package t\n",
		"_hidden/h.go":          "package h\n",
		".build/artifact.go":    "package artifact\n",
		"a/notes/readme.txt":    "not Go\n",
		"a/handwritten_amd64.s": "TEXT ·g(SB), 0, $0\n\tRET\n",
	}
	wantBase := ledger{
		".":             {lines: 1},
		"a":             {lines: 5},
		"a/gen_amd64.s": {lines: 3, generated: true},
		"b":             {lines: 5},
		"c":             {lines: 1},
		"t":             {lines: 0},
	}
	write := func(t *testing.T, root, name, body string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		edit map[string]string // path → new contents, "" deletes
		want []string
	}{
		{"unchanged", nil, nil},
		{"grown", map[string]string{"a/a.go": "package a\n\nfunc A() {}\n\nfunc B() {}\n"}, []string{"a: 5 → 7"}},
		{"shrunk", map[string]string{"b/b.go": "package b\n\nvar x int\n"}, []string{"b: 5 → 3"}},
		{"new package", map[string]string{"d/d.go": "package d\n\nconst D = 1\n"}, []string{"d: absent → 3"}},
		{"removed package", map[string]string{"c/c.go": ""}, []string{"c: 1 → absent"}},
		{"generated file", map[string]string{"a/gen_amd64.s": gen + "\tRET\n"}, []string{"a/gen_amd64.s: 3 generated → 2 generated"}},
		{"test files and skipped trees", map[string]string{
			"a/a_test.go": "package a\n\n\n\n", "a/testdata/skip.go": "", "nested/n.go": "package n\n\n", "_hidden/more.go": "package h\n",
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			for name, body := range base {
				write(t, root, name, body)
			}
			before, err := countLedger(root)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, wantBase) {
				t.Fatalf("base tree ledger %v, want %v", before, wantBase)
			}
			committed, err := parseLedger(before.format())
			if err != nil || !reflect.DeepEqual(committed, before) {
				t.Fatalf("format/parse round trip: %v, %v", committed, err)
			}
			for name, body := range tc.edit {
				if body == "" {
					if err := os.Remove(filepath.Join(root, filepath.FromSlash(name))); err != nil {
						t.Fatal(err)
					}
					continue
				}
				write(t, root, name, body)
			}
			after, err := countLedger(root)
			if err != nil {
				t.Fatal(err)
			}
			if got := diffLedger(committed, after); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("diff %q, want %q", got, tc.want)
			}
		})
	}
}

func TestParseLedgerRejectsMalformedRows(t *testing.T) {
	for _, in := range []string{"a", "a x", "a 1 made", "a 1 generated extra"} {
		if _, err := parseLedger([]byte(in + "\n")); err == nil {
			t.Errorf("parseLedger(%q) accepted", in)
		}
	}
}
