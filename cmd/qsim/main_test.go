package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

// TestMain runs the command itself instead of the tests when the
// environment asks for it, so that a test can drive qsim end to end in a
// child process: qsim(t, stdin, args...).
func TestMain(m *testing.M) {
	if os.Getenv("QSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// qsim runs the command with args, stdin on its standard input, and
// returns its stdout, stderr and exit code.
func qsim(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QSIM_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

var entropyLine = regexp.MustCompile(`entropy=(\S+) nats`)

// TestStartState: every circuit family starts from the state its generator
// assumes — |0…0⟩ but for the supremacy circuits, which leave out their
// Hadamard cycle — on every path: one rank, four ranks, single precision
// (within verify's default F32Tol) and out of core. A GHZ state has entropy
// ln 2, a Bernstein–Vazirani output is a basis state, and a supremacy
// circuit of depth 0 has no gates: its output is the uniform start itself,
// with entropy 10·ln 2 on 10 qubits.
func TestStartState(t *testing.T) {
	const f32Tol = 5e-4
	for _, tc := range []struct {
		circuit []string
		want    float64
	}{
		{[]string{"-circuit", "ghz"}, math.Ln2},
		{[]string{"-circuit", "bv"}, 0},
		{[]string{"-circuit", "supremacy", "-depth", "0"}, 10 * math.Ln2},
	} {
		for _, mode := range [][]string{{"-ranks", "1"}, {"-ranks", "4"}, {"-f32"}, {"-ooc"}} {
			args := append(append([]string{"-qubits", "10", "-seed", "5"}, tc.circuit...), mode...)
			stdout, stderr, code := qsim(t, "", args...)
			if code != 0 {
				t.Fatalf("qsim %v: exit %d\n%s", args, code, stderr)
			}
			m := entropyLine.FindStringSubmatch(stdout)
			if m == nil {
				t.Fatalf("qsim %v printed no entropy:\n%s", args, stdout)
			}
			got, err := strconv.ParseFloat(m[1], 64)
			tol := 1e-6
			if mode[0] == "-f32" {
				tol = f32Tol
			}
			if err != nil || math.Abs(got-tc.want) > tol {
				t.Errorf("qsim %v: entropy %s, want %.6f", args, m[1], tc.want)
			}
		}
	}
}

// TestF32SamplesLikeOneRank: a single-precision run draws its shots with the
// sampler of a one-rank run (statevec.DrawUnit, the state as its one unit),
// so on a state both precisions hold exactly the two print the same shots.
func TestF32SamplesLikeOneRank(t *testing.T) {
	var shots []string
	for _, mode := range []string{"-f32", "-ranks=1"} {
		args := []string{"-circuit", "ghz", "-qubits", "6", "-sample", "1000", "-seed", "3", mode}
		stdout, stderr, code := qsim(t, "", args...)
		_, samples, ok := strings.Cut(stdout, "samples (1000 shots, first 10):\n")
		if code != 0 || !ok || strings.Count(samples, "⟩\n") != 10 {
			t.Fatalf("qsim %v: exit %d, stderr %q; want ten shots in\n%s", args, code, firstLine(stderr), stdout)
		}
		shots = append(shots, samples)
	}
	if shots[0] != shots[1] {
		t.Errorf("-f32 drew\n%s-ranks 1 drew\n%s", shots[0], shots[1])
	}
}

// TestRejectsCounts: a qubit count below 1, a negative depth or shot count
// is a usage error — exit 2 with the reason — not a panic or a run that
// ignores it.
func TestRejectsCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-qubits", "0"}, "-qubits must be at least 1, got 0"},
		{[]string{"-circuit", "qft", "-qubits", "-3"}, "-qubits must be at least 1, got -3"},
		{[]string{"-qubits", "8", "-depth", "-1"}, "-depth must not be negative, got -1"},
		{[]string{"-qubits", "8", "-sample", "-5"}, "-sample must not be negative, got -5"},
		{[]string{"-f32", "-qubits", "35"}, "-qubits must be from 1 to 34 with -f32, got 35"},
	} {
		stdout, stderr, code := qsim(t, "", tc.args...)
		if code != 2 || !strings.Contains(stderr, "qsim: "+tc.want+"\n") || strings.Contains(stderr, "panic:") || stdout != "" {
			t.Errorf("qsim %v: exit %d, stderr %q, stdout %q; want exit 2 and %q", tc.args, code, firstLine(stderr), firstLine(stdout), tc.want)
		}
	}
}

// TestRejectsFlags: a flag that tunes a mode the run is not in, or a count
// out of its range, is a usage error — exit 2 with the reason and the usage
// text — where the run used to ignore or clamp it, or to fail on an internal
// error.
func TestRejectsFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ooc-chunk", "5"}, "-ooc-chunk needs -ooc"},
		{[]string{"-ooc-prefetch", "2"}, "-ooc-prefetch needs -ooc"},
		{[]string{"-ooc-dir", dir}, "-ooc-dir needs -ooc"},
		{[]string{"-checkpoint-every", "3"}, "-checkpoint-every needs -checkpoint-dir"},
		{[]string{"-resume"}, "-resume needs -checkpoint-dir"},
		{[]string{"-tune-cache", dir + "/t.json"}, "-tune-cache needs -tune"},
		{[]string{"-checkpoint-dir", dir, "-checkpoint-every", "0"}, "-checkpoint-every must be at least 1, got 0"},
		{[]string{"-checkpoint-dir", dir, "-checkpoint-every", "-2"}, "-checkpoint-every must be at least 1, got -2"},
		{[]string{"-ooc", "-ooc-prefetch", "-3"}, "-ooc-prefetch must not be negative, got -3"},
		{[]string{"-ooc", "-ooc-chunk", "-5"}, "-ooc-chunk must not be negative, got -5"},
		{[]string{"-ooc", "-ooc-chunk", "8"}, "-ooc-chunk must be from 1 to 7 for 8 qubits, got 8"},
		{[]string{"-ooc", "-qubits", "4", "-ooc-chunk", "4"}, "-ooc-chunk must be from 1 to 3 for 4 qubits, got 4"},
		{[]string{"-ooc", "-qubits", "1"}, "-ooc needs at least 2 qubits, got 1: a paged state needs at least 2 chunks of at least 1 qubit"},
		{[]string{"-ooc", "-qubits", "1", "-ooc-chunk", "1"}, "-ooc needs at least 2 qubits, got 1: a paged state needs at least 2 chunks of at least 1 qubit"},
		{[]string{"-workers", "-1"}, "-workers must not be negative, got -1"},
		{[]string{"-circuit", "bv", "-qubits", "64"}, "-qubits must be from 1 to 62, got 64"},
		{[]string{"-baseline", "-qubits", "70", "-depth", "1"}, "-qubits must be from 1 to 62, got 70"},
		{[]string{"-ranks", "512"}, "-ranks 512 leaves no local qubit of the circuit's 8"},
		{[]string{"-f32", "-comm-deadline", "1ms"}, "-f32 cannot be combined with -comm-deadline"},
		{[]string{"-ooc", "-comm-deadline", "1ms"}, "-ooc cannot be combined with -comm-deadline"},
		{[]string{"-plan", dir + "/p.plan", "-kmax", "3"}, "-plan cannot be combined with -kmax"},
		{[]string{"-plan", dir + "/p.plan", "-spec1q"}, "-plan cannot be combined with -spec1q"},
		{[]string{"-plan", dir + "/p.plan", "-tune"}, "-plan cannot be combined with -tune"},
		{[]string{"-plan", dir + "/p.plan", "-ooc", "-ooc-chunk", "5"}, "-plan cannot be combined with -ooc-chunk"},
	} {
		args := append([]string{"-qubits", "8", "-depth", "4"}, tc.args...)
		stdout, stderr, code := qsim(t, "", args...)
		if code != 2 || !strings.Contains(stderr, "qsim: "+tc.want+"\n") || !strings.Contains(stderr, "-ooc-prefetch int") || stdout != "" {
			t.Errorf("qsim %v: exit %d, stderr %q, stdout %q; want exit 2, %q and the usage text", args, code, firstLine(stderr), firstLine(stdout), tc.want)
		}
	}
}

// TestRejectsUnaddressableQubits: a circuit file beyond the 62 qubits a plan
// addresses, or without a qubit, is an error before any state exists, and
// so is one beyond the 34 qubits of the largest single-precision state. A
// -baseline run used to run out of memory sizing a 10^12-qubit header, and
// an -f32 run to panic allocating 2^35 amplitudes; a -qubits past 62, or
// past 34 with -f32, is a flag error (TestRejectsFlags, TestRejectsCounts).
func TestRejectsUnaddressableQubits(t *testing.T) {
	for _, tc := range []struct {
		stdin string
		args  []string
		want  string
	}{
		{"1000000000000\n", []string{"-baseline", "-file", "/dev/stdin"}, "schedule: 1000000000000 qubits is outside"},
		{"0\n", []string{"-file", "/dev/stdin"}, "circuit: line 1: qubit count must be at least 1, got 0"},
		{"-3\n0 h 0\n", []string{"-baseline", "-file", "/dev/stdin"}, "circuit: line 1: qubit count must be at least 1, got -3"},
		{"35\n0 h 0\n1 h 1\n", []string{"-f32", "-file", "/dev/stdin"}, "-f32 holds at most 34 qubits, the circuit has 35"},
	} {
		stdout, stderr, code := qsim(t, tc.stdin, tc.args...)
		if code != 1 || !strings.Contains(stderr, "qsim: "+tc.want) || strings.Contains(stderr, "panic:") || stdout != "" {
			t.Errorf("qsim %v: exit %d, stderr %q, stdout %q; want exit 1 and %q", tc.args, code, firstLine(stderr), firstLine(stdout), tc.want)
		}
	}
}

// TestRejectsNonFiniteFile: a circuit file with a NaN angle is an error
// naming its line, where it used to run and print norm=NaN.
func TestRejectsNonFiniteFile(t *testing.T) {
	stdout, stderr, code := qsim(t, "3\n0 h 0\n1 rz(NaN) 1\n", "-file", "/dev/stdin")
	if code != 1 || !strings.Contains(stderr, "line 3") || strings.Contains(stdout, "NaN") {
		t.Errorf("qsim -file with rz(NaN): exit %d, stderr %q, stdout %q; want exit 1 naming line 3", code, firstLine(stderr), firstLine(stdout))
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		ranks int
		flags string // the boolean conditions that hold, space-separated
		want  string // the error; "" = accepted
	}{
		{1, "", ""},
		{8, "-sample -profile -checkpoint-dir -resume", ""},
		{1, "-ooc -checkpoint-dir -resume", ""},
		{1, "-f32 -tune -tune-cache", ""},
		{1, "-f32 -sample", ""},
		{4, "-baseline", ""},
		{4, "-baseline -sample -profile -checkpoint-dir -resume", ""},
		{4, "-plan -sample -profile -checkpoint-dir -resume -comm-deadline", ""},
		{1, "-plan -ooc -ooc-prefetch -checkpoint-dir", ""},
		{1, "-plan -f32 -sample", ""},

		{0, "", "ranks must be a power of two, got 0"},
		{6, "", "ranks must be a power of two, got 6"},
		{2, "-ooc", "-ooc cannot be combined with -ranks > 1"},
		{1, "-ooc -baseline", "-ooc cannot be combined with -baseline"},
		{1, "-ooc -sample", "-ooc cannot be combined with -sample"},
		{1, "-ooc -profile", "-ooc cannot be combined with -profile"},
		{2, "-f32", "-f32 cannot be combined with -ranks > 1"},
		{1, "-f32 -baseline", "-f32 cannot be combined with -baseline"},
		{1, "-f32 -ooc", "-f32 cannot be combined with -ooc"},
		{1, "-f32 -profile", "-f32 cannot be combined with -profile"},
		{1, "-f32 -checkpoint-dir", "-f32 cannot be combined with -checkpoint-dir"},
		{1, "-f32 -resume", "-f32 cannot be combined with -resume"},
		{4, "-baseline -plan", "-baseline cannot be combined with -plan"},
		{4, "-baseline -tune", "-baseline cannot be combined with -tune"},
		{4, "-baseline -kmax", "-baseline cannot be combined with -kmax"},
		{1, "-f32 -comm-deadline", "-f32 cannot be combined with -comm-deadline"},
		{1, "-ooc -comm-deadline", "-ooc cannot be combined with -comm-deadline"},
		{4, "-kmax -plan -tune", "-plan cannot be combined with -kmax"},
		{4, "-plan -spec1q", "-plan cannot be combined with -spec1q"},
		{1, "-f32 -plan -tune", "-plan cannot be combined with -tune"},
		{1, "-ooc -plan -ooc-chunk", "-plan cannot be combined with -ooc-chunk"},
		{4, "-resume", "-resume needs -checkpoint-dir"},
		{1, "-ooc -resume", "-resume needs -checkpoint-dir"},
		{1, "-tune-cache", "-tune-cache needs -tune"},
		{1, "-checkpoint-every", "-checkpoint-every needs -checkpoint-dir"},
		{1, "-ooc-chunk", "-ooc-chunk needs -ooc"},
		{1, "-ooc-prefetch -checkpoint-dir", "-ooc-prefetch needs -ooc"},
		{1, "-ooc-dir -f32", "-ooc-dir needs -ooc"},
		{1, "-ooc -ooc-chunk -ooc-prefetch -ooc-dir -checkpoint-dir -checkpoint-every", ""},
	} {
		given := map[string]bool{}
		for _, f := range strings.Fields(tc.flags) {
			given[f] = true
		}
		got := ""
		if err := checkFlags(tc.ranks, given); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("-ranks %d %s: error %q, want %q", tc.ranks, tc.flags, got, tc.want)
		}
	}
}

// TestFailedOutOfCoreRunRemovesStateFile: a run error after the vector exists
// (here a checkpoint directory that is no directory) comes back as an error
// with the state file already removed, where fatal() used to exit past the
// deferred Close.
func TestFailedOutOfCoreRunRemovesStateFile(t *testing.T) {
	dir := t.TempDir()
	_, err := runOutOfCore(schedFlags{kmax: 5}.plan(circuit.QFT(8), 6), telemetry.Disabled, oocOptions{
		dir: dir, ckpt: &ckpt.Policy{Dir: os.DevNull, EveryStages: 1}, resume: true,
	})
	if err == nil {
		t.Fatal("a checkpoint directory that is no directory did not fail the run")
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		t.Errorf("failed run left %s behind", e.Name())
	}
}

// TestPlanSetsTheSize: a run of a saved plan takes its size from the plan,
// not from -qubits: the circuit line, the single-precision state, the paged
// chunks and the width of the samples. The f32 run used to fail on a plan
// for another qubit count than -qubits, and the others to print the
// default circuit's size and sample it.
func TestPlanSetsTheSize(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/p.plan"
	save := exec.Command(goTool, "run", "../qsched", "-qubits", "14", "-depth", "5", "-local", "11", "-save", path)
	if out, err := save.CombinedOutput(); err != nil {
		t.Fatalf("qsched: %v\n%s", err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := schedule.ReadPlan(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	circuitLine := fmt.Sprintf("circuit: 14 qubits, %d gates\n", plan.Stats.Gates)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-ranks", "8", "-sample", "3"}, []string{"ranks:   8 (2^11 amplitudes each)"}},
		{[]string{"-f32", "-sample", "3"}, []string{"f32:     2^14 complex64 amplitudes"}},
		{[]string{"-ooc"}, []string{"ooc:     2^3 chunks of 2^11 amplitudes"}},
	} {
		args := append([]string{"-plan", path}, tc.args...)
		stdout, stderr, code := qsim(t, "", args...)
		if code != 0 {
			t.Errorf("qsim %v: exit %d\n%s", args, code, stderr)
			continue
		}
		for _, want := range append(tc.want, circuitLine) {
			if !strings.Contains(stdout, want) {
				t.Errorf("qsim %v printed no %q:\n%s", args, want, stdout)
			}
		}
		for _, m := range sampleLine.FindAllStringSubmatch(stdout, -1) {
			if len(m[1]) != 14 {
				t.Errorf("qsim %v: sample %s is not 14 digits wide", args, m[1])
			}
		}
	}
}

var sampleLine = regexp.MustCompile(`\|([01]+)⟩`)

// TestCheckpointResumeRoundTrip: a run that snapshots its boundaries, then
// the same command with -resume, at one paged and one 4-rank geometry. The
// resumed run says it restored a snapshot and prints the result line of the
// run it continues.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	resultLine := regexp.MustCompile(`(?m)^result:.*$`)
	resumed := regexp.MustCompile(`(?m)^ckpt: .* committed, [1-9]\d* restored, 0 restarts$`)
	for _, mode := range [][]string{{"-ooc"}, {"-ranks", "4"}} {
		args := append([]string{"-qubits", "16", "-depth", "10", "-checkpoint-dir", t.TempDir()}, mode...)
		first, stderr, code := qsim(t, "", args...)
		if code != 0 {
			t.Fatalf("qsim %v: exit %d\n%s", args, code, stderr)
		}
		args = append(args, "-resume")
		second, stderr, code := qsim(t, "", args...)
		if code != 0 {
			t.Fatalf("qsim %v: exit %d\n%s", args, code, stderr)
		}
		if !resumed.MatchString(second) {
			t.Errorf("qsim %v did not resume from a snapshot:\n%s", args, second)
		}
		want, got := resultLine.FindString(first), resultLine.FindString(second)
		if want == "" || got != want {
			t.Errorf("qsim %v: resumed %q, uninterrupted %q", args, got, want)
		}
	}
}

// TestOutOfCoreDefaultChunk: without -ooc-chunk a paged run's chunk is
// qubits−4 qubits, and at least one.
func TestOutOfCoreDefaultChunk(t *testing.T) {
	for q, want := range map[string]string{"3": "ooc:     2^2 chunks of 2^1 amplitudes", "9": "ooc:     2^4 chunks of 2^5 amplitudes"} {
		stdout, stderr, code := qsim(t, "", "-ooc", "-qubits", q, "-depth", "4")
		if code != 0 || !strings.Contains(stdout, want) {
			t.Errorf("qsim -ooc -qubits %s: exit %d, stderr %q; want %q in\n%s", q, code, firstLine(stderr), want, stdout)
		}
	}
}

// TestBaselineStepsInPaperUnit: a -baseline run counts one communication
// step per communicating gate, as dist.RunBaseline (Table 2's path) does,
// where it counted the two exchanges of every dense gate on a global qubit.
func TestBaselineStepsInPaperUnit(t *testing.T) {
	circ, _, err := buildCircuit("supremacy", 12, 10, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	plan := schedFlags{kmax: 5, perGate: true}.plan(circ, 10)
	got, err := runDist(plan, dist.Options{Ranks: 4, Init: dist.InitUniform}, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dist.RunBaseline(circ, dist.BaselineOptions{Ranks: 4, Init: dist.InitUniform})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got.notes[0], "comm:    4 steps,") || want.CommSteps != 4 {
		t.Errorf("qsim -baseline reports %q, dist.RunBaseline %d steps; want 4 for both", got.notes[0], want.CommSteps)
	}
}

var (
	usageFlag  = regexp.MustCompile(`(?m)^  -([a-z0-9.-]+)`)
	readmeFlag = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9-]*)")
)

// TestREADMENamesEveryFlag holds README.md and the flag set together: every
// flag `qsim -h` lists appears in the README as -name, and every -name on a
// README line that runs qsim is a flag qsim has. (The child is this test
// binary, so its -test.* flags are left out.)
func TestREADMENamesEveryFlag(t *testing.T) {
	_, usage, code := qsim(t, "", "-h")
	if code != 0 {
		t.Fatalf("qsim -h exited %d:\n%s", code, usage)
	}
	flags := map[string]bool{}
	for _, m := range usageFlag.FindAllStringSubmatch(usage, -1) {
		if !strings.HasPrefix(m[1], "test.") {
			flags[m[1]] = true
		}
	}
	if len(flags) < 20 {
		t.Fatalf("parsed %d flags from qsim -h:\n%s", len(flags), usage)
	}
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		for _, m := range readmeFlag.FindAllStringSubmatch(line, -1) {
			named[m[1]] = true
			if strings.Contains(line, "go run ./cmd/qsim") && !flags[m[1]] {
				t.Errorf("README runs qsim with -%s, which qsim does not have: %s", m[1], line)
			}
		}
	}
	for f := range flags {
		if !named[f] {
			t.Errorf("README never names qsim's -%s", f)
		}
	}
}
