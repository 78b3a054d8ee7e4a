package verify

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"qusim/internal/circuit"
)

func TestHarnessCleanRun(t *testing.T) {
	rep, err := Run(Options{Quick: true, Seed: 42, Qubits: 7, Circuits: 8, FaultCircuits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("harness found violations on a clean tree:\n%s", rep.String())
	}
	if rep.MetamorphicRun != 5 || len(rep.MetamorphicFailed) != 0 {
		t.Errorf("metamorphic: ran %d, failed %v", rep.MetamorphicRun, rep.MetamorphicFailed)
	}
	if rep.FaultEvents == 0 {
		t.Error("fault scenarios injected no perturbations")
	}
	if rep.FaultScenarios < 1 {
		t.Error("no fault scenarios ran")
	}
	rec := rep.Recovery
	if rec == nil {
		t.Fatal("no recovery sweep ran")
	}
	if rec.CrashPoints == 0 || rec.CorruptPoints == 0 {
		t.Errorf("recovery sweep exercised %d crash and %d corruption points", rec.CrashPoints, rec.CorruptPoints)
	}
	if rec.Restarts < rec.CrashPoints+rec.CorruptPoints {
		t.Errorf("every injected fault should force a restart: %d restarts for %d points",
			rec.Restarts, rec.CrashPoints+rec.CorruptPoints)
	}
	if rec.Restored == 0 {
		t.Error("no recovery attempt ever resumed from a snapshot")
	}
	if rec.FaultEvents == 0 {
		t.Error("recovery sweep injected no fault events")
	}
}

// TestReportResultLine: a failed recovery or metamorphic check with no
// divergence does not end the report with "all execution paths agree".
func TestReportResultLine(t *testing.T) {
	empty := func() *Engine { return NewEngine(Naive(), nil, 0) }
	rep := &Report{Differential: empty(), F32: empty(), Blocked: empty(), BlockedF32: empty(), Faults: empty(),
		Recovery: &RecoveryReport{}}
	if got := rep.String(); !strings.HasSuffix(got, "RESULT: all execution paths agree\n") {
		t.Errorf("clean report ends %q", got[strings.LastIndex(got, "RESULT"):])
	}
	rep.Recovery.Failures = []string{"corruption sweep never injected anything"}
	if got := rep.String(); !rep.Failed() || !strings.HasSuffix(got, "RESULT: no divergence, but a check above FAILED\n") {
		t.Errorf("report with a failed recovery sweep ends %q", got[strings.LastIndex(got, "RESULT"):])
	}
}

// TestRecoverySweepFailures: a corruption sweep that injects nothing fails
// a run with exchanges to corrupt and is not applicable to one without; a
// crash sweep must inject and must end either way.
func TestRecoverySweepFailures(t *testing.T) {
	for _, tc := range []struct {
		rep  RecoveryReport
		want []string
	}{
		{RecoveryReport{CrashPoints: 9, Exchanges: 2, CorruptPoints: 2}, nil},
		{RecoveryReport{CrashPoints: 2}, nil},
		{RecoveryReport{CrashPoints: 9, Exchanges: 2}, []string{"corruption sweep never injected anything"}},
		{RecoveryReport{Exchanges: 1, CorruptPoints: 1}, []string{"crash sweep never injected anything"}},
		{RecoveryReport{CrashPoints: maxRecoveryPoints}, []string{"crash sweep did not terminate within 512 points"}},
	} {
		if got := tc.rep.sweepFailures(); !slices.Equal(got, tc.want) {
			t.Errorf("%+v: failures %q, want %q", tc.rep, got, tc.want)
		}
	}
}

func TestMatrixCoversRequiredPairs(t *testing.T) {
	_, quick := Matrix(true)
	if len(quick) < 4 {
		t.Errorf("quick matrix has %d backend pairs, acceptance needs ≥ 4", len(quick))
	}
	_, full := Matrix(false)
	if len(full) <= len(quick) {
		t.Errorf("full matrix (%d) should extend the quick matrix (%d)", len(full), len(quick))
	}
}

// buggyBackend wraps the naive path but flips the state's sign whenever the
// circuit contains a T gate — a deterministic seeded bug the engine must
// detect and shrink to a minimal reproducer.
type buggyBackend struct{ inner Backend }

func (b *buggyBackend) Name() string { return "buggy" }
func (b *buggyBackend) Run(c *circuit.Circuit) ([]complex128, error) {
	amps, err := b.inner.Run(c)
	if err != nil {
		return nil, err
	}
	if countT(c) > 0 {
		for i := range amps {
			amps[i] = -amps[i]
		}
	}
	return amps, nil
}

func TestEngineDetectsAndMinimizesDivergence(t *testing.T) {
	eng := NewEngine(Naive(), []Backend{&buggyBackend{inner: Kernel()}}, 1e-10)
	c := Random(RandomOptions{Qubits: 5, Gates: 60, Seed: 9})
	if countT(c) == 0 {
		t.Fatal("seed produced no T gates; pick another seed")
	}
	if err := eng.Check(c); err != nil {
		t.Fatal(err)
	}
	if !eng.Failed() {
		t.Fatal("engine missed an injected bug")
	}
	div := eng.Divergences[0]
	if div.Backend != "buggy" || div.MaxDelta < 0.1 {
		t.Errorf("divergence misattributed: %+v", div)
	}
	// Sign flip leaves |⟨a|b⟩|² = 1: the fidelity channel must see nothing
	// while the amplitude channel fires — that separation is the point of
	// reporting both.
	if div.FidDelta > 1e-9 {
		t.Errorf("global sign flip should be fidelity-invisible, got |1-F| = %g", div.FidDelta)
	}
	// The bug triggers on any single T gate, so delta debugging must get
	// down to exactly one gate.
	if div.ReproducerGates != 1 {
		t.Errorf("minimized reproducer has %d gates, want 1:\n%s", div.ReproducerGates, div.Reproducer)
	}
	// And the reproducer must be replayable through the text format.
	repro, err := circuit.ReadText(strings.NewReader(div.Reproducer))
	if err != nil {
		t.Fatalf("reproducer does not parse: %v\n%s", err, div.Reproducer)
	}
	if countT(repro) != 1 {
		t.Errorf("reproducer lost the triggering T gate:\n%s", div.Reproducer)
	}
}

func TestRandomCircuitsSerializable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := Random(RandomOptions{Qubits: 6, Gates: 50, Seed: seed, DenseEntanglers: seed%2 == 0})
		var buf bytes.Buffer
		if err := circuit.WriteText(&buf, c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := circuit.ReadText(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(again.Gates) != len(c.Gates) {
			t.Fatalf("seed %d: round trip %d -> %d gates", seed, len(c.Gates), len(again.Gates))
		}
	}
}

func TestRandomCircuitsDeterministic(t *testing.T) {
	a := Random(RandomOptions{Qubits: 6, Gates: 40, Seed: 3})
	b := Random(RandomOptions{Qubits: 6, Gates: 40, Seed: 3})
	if a.String() != b.String() {
		t.Error("same seed produced different circuits")
	}
	c := Random(RandomOptions{Qubits: 6, Gates: 40, Seed: 4})
	if a.String() == c.String() {
		t.Error("different seeds produced identical circuits")
	}
}

func TestInverseIsExact(t *testing.T) {
	// Directly exercised per-kind (the metamorphic property covers the
	// composite): every serializable kind times its inverse is identity.
	c := circuit.NewCircuit(3)
	c.Append(
		circuit.NewH(0), circuit.NewX(1), circuit.NewY(2), circuit.NewZ(0),
		circuit.NewS(1), circuit.NewT(2), circuit.NewXHalf(0), circuit.NewYHalf(1),
		circuit.NewRz(2, 0.7), circuit.NewPhase(0, -1.2), circuit.NewCZ(0, 1),
		circuit.NewCPhase(1, 2, 2.1), circuit.NewCNOT(0, 2), circuit.NewSwap(1, 2),
	)
	inv, err := Inverse(c)
	if err != nil {
		t.Fatal(err)
	}
	whole := circuit.NewCircuit(3)
	whole.Gates = append(append(whole.Gates, c.Gates...), inv.Gates...)
	amps, err := Naive().Run(whole)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(amps))
	want[0] = 1
	if d := MaxAmpDelta(amps, want); d > 1e-12 {
		t.Errorf("circuit ∘ inverse deviates from identity by %g", d)
	}
}

func TestMetamorphicPropertiesPass(t *testing.T) {
	for _, p := range Properties(6, 11) {
		if err := p.Check(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPermuteIndexRoundTrip(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := make([]int, len(perm))
	for q, p := range perm {
		inv[p] = q
	}
	for b := 0; b < 16; b++ {
		if got := PermuteIndex(PermuteIndex(b, perm), inv); got != b {
			t.Fatalf("PermuteIndex not invertible: %d -> %d", b, got)
		}
	}
}

func TestBaselineSkipsDenseGlobalGates(t *testing.T) {
	c := circuit.NewCircuit(6)
	c.Append(circuit.NewCNOT(0, 5)) // dense 2-qubit touching a global qubit at ranks=4 (l=4)
	_, err := Baseline(4).Run(c)
	if err != ErrUnsupported {
		t.Errorf("want ErrUnsupported, got %v", err)
	}
	c2 := circuit.NewCircuit(6)
	c2.Append(circuit.NewCZ(0, 5)) // diagonal: specialization handles it
	if _, err := Baseline(4).Run(c2); err != nil {
		t.Errorf("CZ on global qubit should be supported: %v", err)
	}
}

func TestF32BackendsEnrolledInMatrix(t *testing.T) {
	quick := MatrixF32(true)
	if len(quick) < 2 {
		t.Errorf("quick f32 matrix has %d backends, want ≥ 2 (per-gate + scheduled)", len(quick))
	}
	full := MatrixF32(false)
	if len(full) <= len(quick) {
		t.Errorf("full f32 matrix (%d) should extend the quick matrix (%d)", len(full), len(quick))
	}
	rep, err := Run(Options{Quick: true, Seed: 7, Qubits: 6, Circuits: 4, FaultCircuits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.F32 == nil {
		t.Fatal("harness ran no single-precision phase")
	}
	if rep.F32.Failed() {
		t.Fatalf("f32 backends diverged beyond tolerance:\n%s", rep.F32.Summary())
	}
	if len(rep.F32.Pairs) == 0 {
		t.Error("f32 engine compared no circuit pairs")
	}
	if !strings.Contains(rep.String(), F32().Name()) {
		t.Error("report does not mention the f32 backend")
	}
}

// TestF32EngineCatchesStructuralBug plants a deterministic bug behind the
// single-precision backend and checks the epsilon-tolerant engine still
// detects it: the loose tolerance must not be so loose it passes O(1)
// structural errors.
func TestF32EngineCatchesStructuralBug(t *testing.T) {
	eng := NewEngine(Naive(), []Backend{&buggyBackend{inner: F32()}}, 5e-4)
	c := Random(RandomOptions{Qubits: 5, Gates: 60, Seed: 9})
	if err := eng.Check(c); err != nil {
		t.Fatal(err)
	}
	if !eng.Failed() {
		t.Fatal("epsilon-tolerant engine missed a sign-flip bug")
	}
}

// countT returns the number of T gates in c.
func countT(c *circuit.Circuit) int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == circuit.KindT {
			n++
		}
	}
	return n
}
