package main

import (
	"os"
	"os/exec"
	"syscall"
	"testing"
)

// peakRSS runs qsim with args in a child process and returns the peak
// resident set of the child, in bytes.
func peakRSS(t *testing.T, args ...string) int64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QSIM_RUN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("qsim %v: %v\n%s", args, err, out)
	}
	return cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss << 10 // KiB on Linux
}

// TestF32UniformHoldsOneState: qsim -f32 from the uniform state (a
// supremacy circuit) allocates one single-precision state, as it does from
// |0…0⟩ (a GHZ circuit): at 2^22 amplitudes, 32 MiB, the two runs peak
// within 8 MiB of each other. A second state, allocated and touched before
// the first is dropped, would add 32 MiB.
func TestF32UniformHoldsOneState(t *testing.T) {
	const slack = 8 << 20
	uniform := peakRSS(t, "-f32", "-qubits", "22", "-depth", "2")
	zero := peakRSS(t, "-f32", "-circuit", "ghz", "-qubits", "22")
	t.Logf("peak RSS: %.1f MiB from the uniform state, %.1f MiB from |0…0⟩", float64(uniform)/(1<<20), float64(zero)/(1<<20))
	if uniform > zero+slack {
		t.Errorf("qsim -f32 from the uniform state peaks at %.1f MiB, from |0…0⟩ at %.1f MiB: more than %d MiB apart",
			float64(uniform)/(1<<20), float64(zero)/(1<<20), slack>>20)
	}
}
