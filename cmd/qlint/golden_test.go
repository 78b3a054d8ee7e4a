package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenBadPackage pins the full user-visible contract of a failing
// run: exit code 1, diagnostics on stdout in the stable
// path:line:col: analyzer: message form (sorted, module-root-relative),
// and the finding count on stderr.
func TestGoldenBadPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"testdata/src/badpkg", "testdata/src/badpkg/internal/orphan"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%sstderr:\n%s", code, stdout.String(), stderr.String())
	}
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("diagnostics differ from testdata/golden.txt\ngot:\n%swant:\n%s", stdout.String(), want)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr %q does not report the finding count", stderr.String())
	}
}

// TestCleanPackageExitsZero checks the success contract: silent stdout,
// exit 0.
func TestCleanPackageExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%sstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run wrote to stdout:\n%s", stdout.String())
	}
}

// TestUsageErrorsExitTwo checks the load/usage error contract.
func TestUsageErrorsExitTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nosuchanalyzer"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer: exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr %q does not name the unknown analyzer", stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing dir: exit code = %d, want 2", code)
	}
}

// TestOnlySelectsAnalyzers checks -only narrows the run: with hotalloc
// excluded, the bad package's hot-loop findings disappear.
func TestOnlySelectsAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "nilsafetelemetry", "testdata/src/badpkg"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "nilsafetelemetry:") {
		t.Errorf("selected analyzer missing from output:\n%s", out)
	}
	for _, unwanted := range []string{"hotalloc:", "atomicrename:"} {
		if strings.Contains(out, unwanted) {
			t.Errorf("-only nilsafetelemetry still ran %s\n%s", unwanted, out)
		}
	}
}

// TestDeadCodeIndependentOfPattern: deadcode judges a package against the
// whole module, so linting some directories reports exactly what
// ./... reports for them. A graph built from the named directories alone would
// flag every name that only other packages use.
func TestDeadCodeIndependentOfPattern(t *testing.T) {
	dirs := []string{"internal/xeb", "internal/statevec", "internal/gate"}
	args := []string{"-only", "deadcode", "-strict-ignores"}
	for _, dir := range dirs {
		args = append(args, filepath.Join("..", "..", dir))
	}
	var all, some, stderr bytes.Buffer
	if code := run([]string{"-only", "deadcode", "-strict-ignores", "./..."}, &all, &stderr); code == 2 {
		t.Fatalf("qlint ./...: exit 2\n%s", stderr.String())
	}
	if code := run(args, &some, &stderr); code == 2 {
		t.Fatalf("qlint %v: exit 2\n%s", dirs, stderr.String())
	}
	var want string
	for _, line := range strings.SplitAfter(all.String(), "\n") {
		for _, dir := range dirs {
			if strings.HasPrefix(line, dir+"/") {
				want += line
			}
		}
	}
	if some.String() != want {
		t.Errorf("qlint %v reports\n%swhile ./... reports for them\n%s", dirs, some.String(), want)
	}
}
