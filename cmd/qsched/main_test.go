package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself instead of the tests when the
// environment asks for it, so that a test can drive qsched in a child
// process.
func TestMain(m *testing.M) {
	if os.Getenv("QSCHED_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsFlags: a qubit count no grid has, a negative depth or an
// unknown policy is a usage error — exit 2 with the reason and the usage
// text, before any circuit exists — where qsched used to panic in the
// circuit generator or print an empty plan.
func TestRejectsFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-qubits", "0"}, "-qubits must be from 1 to 62, got 0"},
		{[]string{"-qubits", "-3"}, "-qubits must be from 1 to 62, got -3"},
		{[]string{"-qubits", "70"}, "-qubits must be from 1 to 62, got 70"},
		{[]string{"-depth", "-1"}, "-depth must not be negative, got -1"},
		{[]string{"-policy", "best"}, `unknown policy "best"`},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "QSCHED_RUN_MAIN=1")
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		code := 0
		var exit *exec.ExitError
		if err := cmd.Run(); errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		stderr := errOut.String()
		if code != 2 || !strings.Contains(stderr, "qsched: "+tc.want+"\n") || !strings.Contains(stderr, "-policy string") ||
			strings.Contains(stderr, "panic:") || out.Len() != 0 {
			t.Errorf("qsched %v: exit %d, stderr %q, stdout %q; want exit 2, %q and the usage text", tc.args, code, stderr, out.String(), tc.want)
		}
	}
}
