package circuit

import (
	"bytes"
	"math"
	"math/cmplx"
	"slices"
	"strings"
	"testing"

	"qusim/internal/gate"
	"qusim/internal/statevec"
)

func run(c *Circuit) *statevec.Vector {
	v := statevec.New(c.N)
	for _, g := range c.Gates {
		v.Apply(g.Matrix(), g.Qubits...)
	}
	return v
}

func TestGateMatrixConventions(t *testing.T) {
	// NewCNOT(control, target): |control=1⟩ flips target.
	v := statevec.New(2)
	v.Apply(gate.X(), 0) // set qubit 0 (the control)
	g := NewCNOT(0, 1)
	v.Apply(g.Matrix(), g.Qubits...)
	if p := v.Probability(0b11); math.Abs(p-1) > 1e-12 {
		t.Errorf("CNOT(c=0,t=1)|01⟩: P(11) = %v", p)
	}
}

func TestAllKindsHaveUnitaryMatrices(t *testing.T) {
	gates := []Gate{
		NewH(0), NewX(0), NewY(0), NewZ(0), NewS(0), NewT(0),
		NewXHalf(0), NewYHalf(0), NewRz(0, 0.3), NewPhase(0, 0.4),
		NewCZ(0, 1), NewCPhase(0, 1, 0.5), NewCNOT(0, 1), NewSwap(0, 1),
	}
	for _, g := range gates {
		m := g.Matrix()
		conj := gate.New(m.K) // m†
		for r := 0; r < m.Dim(); r++ {
			for c := 0; c < m.Dim(); c++ {
				conj.Data[c*m.Dim()+r] = cmplx.Conj(m.Data[r*m.Dim()+c])
			}
		}
		if p := gate.Mul(conj, m); !slices.EqualFunc(p.Data, gate.Identity(m.K).Data, func(a, b complex128) bool { return cmplx.Abs(a-b) <= 1e-12 }) {
			t.Errorf("%v matrix not unitary", g)
		}
		if g.Matrix().K != g.K() {
			t.Errorf("%v: matrix K %d != gate K %d", g, g.Matrix().K, g.K())
		}
	}
}

func TestDiagonalKinds(t *testing.T) {
	diag := []Gate{NewZ(0), NewS(0), NewT(0), NewRz(0, 1), NewPhase(0, 1), NewCZ(0, 1), NewCPhase(0, 1, 1)}
	for _, g := range diag {
		if !g.IsDiagonal() {
			t.Errorf("%v should report diagonal", g)
		}
	}
	nondiag := []Gate{NewH(0), NewX(0), NewXHalf(0), NewCNOT(0, 1), NewSwap(0, 1)}
	for _, g := range nondiag {
		if g.IsDiagonal() {
			t.Errorf("%v should not report diagonal", g)
		}
	}
}

func TestAppendValidates(t *testing.T) {
	c := NewCircuit(2)
	for i, g := range []Gate{NewH(2), NewCZ(0, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Append accepted invalid gate", i)
				}
			}()
			c.Append(g)
		}()
	}
}

func TestDepth(t *testing.T) {
	c := NewCircuit(3)
	if c.Depth() != 0 {
		t.Errorf("empty circuit depth %d", c.Depth())
	}
	c.Append(NewH(0), NewH(1), NewH(2)) // depth 1
	c.Append(NewCZ(0, 1))               // depth 2
	c.Append(NewT(2))                   // still depth 2
	c.Append(NewCZ(1, 2))               // depth 3
	if c.Depth() != 3 {
		t.Errorf("depth = %d, want 3", c.Depth())
	}
}

func TestGHZState(t *testing.T) {
	v := run(GHZ(4))
	inv := 1 / math.Sqrt2
	if math.Abs(real(v.Amplitude(0))-inv) > 1e-12 || math.Abs(real(v.Amplitude(15))-inv) > 1e-12 {
		t.Errorf("GHZ amps: %v, %v", v.Amplitude(0), v.Amplitude(15))
	}
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("GHZ norm %v", v.Norm())
	}
}

func TestQFTOnBasisState(t *testing.T) {
	// QFT of |0…0⟩ is the uniform superposition.
	n := 5
	v := run(QFT(n))
	u := statevec.NewUniform(n)
	if d := v.MaxDiff(u); d > 1e-12 {
		t.Errorf("QFT|0⟩ vs uniform: max diff %g", d)
	}
}

func TestQFTMatchesDFT(t *testing.T) {
	// QFT amplitudes of basis state |x⟩ are ω^{xy}/√N with bit-reversed
	// output ordering; verify via ReverseBits against the explicit DFT.
	n := 4
	x := 0b0110
	v := statevec.New(n)
	for q := 0; q < n; q++ {
		if x&(1<<q) != 0 {
			v.Apply(gate.X(), q)
		}
	}
	for _, g := range QFT(n).Gates {
		v.Apply(g.Matrix(), g.Qubits...)
	}
	v.ReverseBits()
	N := 1 << n
	for y := 0; y < N; y++ {
		want := complex(math.Cos(2*math.Pi*float64(x*y)/float64(N)), math.Sin(2*math.Pi*float64(x*y)/float64(N)))
		want /= complex(math.Sqrt(float64(N)), 0)
		got := v.Amplitude(y)
		if math.Hypot(real(got-want), imag(got-want)) > 1e-10 {
			t.Fatalf("amp[%d] = %v, want %v", y, got, want)
		}
	}
}

func TestGroverFindsMarkedState(t *testing.T) {
	n := 6
	marked := 0b101101 % (1 << n)
	c := Grover(n, marked, 6) // ⌊π/4·√(2^n)⌋, the most likely iteration count
	v := run(c)
	if p := v.Probability(marked); p < 0.95 {
		t.Errorf("Grover success probability %v, want > 0.95", p)
	}
}

func TestTextRoundTrip(t *testing.T) {
	c := Supremacy(SupremacyOptions{Rows: 3, Cols: 3, Depth: 12, Seed: 3})
	c.Append(NewRz(0, 0.123456789))
	var buf bytes.Buffer
	if err := WriteText(&buf, c); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.N != c.N || len(parsed.Gates) != len(c.Gates) {
		t.Fatalf("round trip: n=%d gates=%d, want n=%d gates=%d", parsed.N, len(parsed.Gates), c.N, len(c.Gates))
	}
	for i := range c.Gates {
		a, b := c.Gates[i], parsed.Gates[i]
		if a.Kind != b.Kind || a.Cycle != b.Cycle || a.Param != b.Param {
			t.Fatalf("gate %d: %v vs %v", i, a, b)
		}
		for j := range a.Qubits {
			if a.Qubits[j] != b.Qubits[j] {
				t.Fatalf("gate %d qubits differ", i)
			}
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                 // empty
		"abc\n",            // bad qubit count
		"2\n0 zz 0\n",      // unknown gate
		"2\n0 h\n",         // missing qubits
		"2\nx h 0\n",       // bad cycle
		"2\n0 h 5\n",       // qubit out of range
		"2\n0 rz(bad) 0\n", // bad parameter
		"2\n0 cz 0 0\n",    // duplicate qubit
	}
	for i, s := range cases {
		if _, err := ReadText(strings.NewReader(s)); err == nil {
			t.Errorf("case %d (%q): expected error", i, s)
		}
	}
}

// TestReadTextRejectsNonFinite: a parameter that parses as NaN or ±Inf is
// an error naming its line, not a gate whose matrix turns the state to NaN.
func TestReadTextRejectsNonFinite(t *testing.T) {
	for _, param := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e400"} {
		in := "2\n0 h 0\n1 rz(" + param + ") 1\n"
		_, err := ReadText(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("rz(%s): error %v, want one naming line 3", param, err)
		}
	}
}

func TestWriteTextRejectsCustom(t *testing.T) {
	c := NewCircuit(2)
	c.Append(NewUnitary(gate.H(), 0))
	var buf bytes.Buffer
	if err := WriteText(&buf, c); err == nil {
		t.Error("expected error serializing custom gate")
	}
}

func TestSupremacyCircuitNormPreserved(t *testing.T) {
	c := Supremacy(SupremacyOptions{Rows: 3, Cols: 3, Depth: 16, Seed: 11})
	v := run(c)
	if math.Abs(v.Norm()-1) > 1e-10 {
		t.Errorf("norm after supremacy circuit: %v", v.Norm())
	}
	// The output should be highly entangled: entropy close to n·ln2 − γ.
	if e := v.Entropy(); e < 0.5*float64(c.N)*math.Ln2 {
		t.Errorf("suspiciously low output entropy %v", e)
	}
}
