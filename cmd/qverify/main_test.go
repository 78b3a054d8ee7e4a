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
// environment asks for it, so that a test can drive qverify in a child
// process.
func TestMain(m *testing.M) {
	if os.Getenv("QVERIFY_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsFlags: a value the harness cannot use is a usage error — exit
// 2 with the reason and the usage text, before any circuit runs — where
// qverify used to panic in a circuit generator, ignore a negative count, or
// report every row as diverged.
func TestRejectsFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-qubits", "1"}, "-qubits must be 0 (the default) or from 3 to 62, got 1"},
		{[]string{"-qubits", "2"}, "-qubits must be 0 (the default) or from 3 to 62, got 2"},
		{[]string{"-qubits", "-2"}, "-qubits must be 0 (the default) or from 3 to 62, got -2"},
		{[]string{"-qubits", "70"}, "-qubits must be 0 (the default) or from 3 to 62, got 70"},
		{[]string{"-circuits", "-1"}, "-circuits, -gates, -fault-circuits and -workers must not be negative, got -1, 0, 0 and 0"},
		{[]string{"-gates", "-4"}, "-circuits, -gates, -fault-circuits and -workers must not be negative, got 0, -4, 0 and 0"},
		{[]string{"-fault-circuits", "-3"}, "-circuits, -gates, -fault-circuits and -workers must not be negative, got 0, 0, -3 and 0"},
		{[]string{"-workers", "-1"}, "-circuits, -gates, -fault-circuits and -workers must not be negative, got 0, 0, 0 and -1"},
		{[]string{"-tol", "0"}, "-tol and -f32-tol must be positive and finite, got 0 and 0.0005"},
		{[]string{"-tol", "-1e-10"}, "-tol and -f32-tol must be positive and finite, got -1e-10 and 0.0005"},
		{[]string{"-tol", "NaN"}, "-tol and -f32-tol must be positive and finite, got NaN and 0.0005"},
		{[]string{"-f32-tol", "-5e-4"}, "-tol and -f32-tol must be positive and finite, got 1e-10 and -0.0005"},
		{[]string{"-f32-tol", "+Inf"}, "-tol and -f32-tol must be positive and finite, got 1e-10 and +Inf"},
	} {
		args := append([]string{"-quick"}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "QVERIFY_RUN_MAIN=1")
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
		if code != 2 || !strings.Contains(stderr, "qverify: "+tc.want+"\n") || !strings.Contains(stderr, "-f32-tol float") ||
			strings.Contains(stderr, "panic:") || out.Len() != 0 {
			t.Errorf("qverify %v: exit %d, stderr %q, stdout %q; want exit 2, %q and the usage text", args, code, stderr, out.String(), tc.want)
		}
	}
}

// TestFewGatesPass: a random circuit of a few gates stays local — its plan
// has no exchange for the recovery sweep to corrupt — and the harness says
// so and passes instead of failing the sweep for injecting nothing.
func TestFewGatesPass(t *testing.T) {
	for _, gates := range []string{"1", "2", "5"} {
		t.Run("gates"+gates, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-quick", "-gates", gates)
			cmd.Env = append(os.Environ(), "QVERIFY_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("qverify -quick -gates %s: %v\n%s", gates, err, out)
			}
			if !strings.Contains(string(out), "(no exchange to corrupt)") || !strings.Contains(string(out), "RESULT: all execution paths agree") {
				t.Errorf("qverify -quick -gates %s passed without reporting the corruption sweep as not applicable:\n%s", gates, out)
			}
		})
	}
}
