package circuit

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestRingEdges(t *testing.T) {
	if got := RingEdges(1); got != nil {
		t.Fatalf("RingEdges(1) = %v, want nil", got)
	}
	if got := RingEdges(2); len(got) != 1 || got[0] != (Bond{A: 0, B: 1}) {
		t.Fatalf("RingEdges(2) = %v, want one 0-1 edge", got)
	}
	edges := RingEdges(5)
	if len(edges) != 5 {
		t.Fatalf("RingEdges(5): %d edges, want 5", len(edges))
	}
	deg := make([]int, 5)
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("edge %v not normalized", e)
		}
		deg[e.A]++
		deg[e.B]++
	}
	for q, d := range deg {
		if d != 2 {
			t.Fatalf("vertex %d has degree %d, want 2", q, d)
		}
	}
}

func TestQAOAMaxCutRingSerializableAndDiagonalEntangled(t *testing.T) {
	params := SweepParams(3, 2, 4)
	c := QAOAMaxCutRing(6, params[1][:2], params[1][2:])
	for _, g := range c.Gates {
		if g.K() == 2 && !g.IsDiagonal() {
			t.Fatalf("QAOA circuit has dense entangler %v", g)
		}
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, c); err != nil {
		t.Fatalf("QAOA circuit not serializable: %v", err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Gates) != len(c.Gates) {
		t.Fatalf("round-trip gate count %d != %d", len(back.Gates), len(c.Gates))
	}
}

// The all-zero-parameter QAOA circuit must act as the identity on the
// uniform superposition: every gate is either H (paired, cancelling) or a
// zero-angle phase.
func TestQAOAZeroParamsUniform(t *testing.T) {
	n := 4
	c := QAOAMaxCutRing(n, []float64{0, 0}, []float64{0, 0})
	probs := simulateProbs(t, c)
	u := 1 / float64(len(probs))
	for b, p := range probs {
		if math.Abs(p-u) > 1e-12 {
			t.Fatalf("state %d: p=%v, want uniform %v", b, p, u)
		}
	}
	cut := MaxCutExpectation(probs, RingEdges(n))
	if want := float64(n) / 2; math.Abs(cut-want) > 1e-12 {
		t.Fatalf("uniform cut expectation %v, want %v", cut, want)
	}
}

// The one-pass cut count must agree with the definition, edge by edge
// (1 − ⟨Z_a Z_b⟩)/2, on a distribution long enough to be split across
// workers and a graph with crossing, repeated and adjacent edges.
func TestMaxCutExpectationMatchesPerEdgeSum(t *testing.T) {
	const n = 14
	rng := rand.New(rand.NewSource(7))
	probs := make([]float64, 1<<n)
	var total float64
	for i := range probs {
		probs[i] = rng.ExpFloat64()
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	edges := append(RingEdges(n), Bond{A: 0, B: 7}, Bond{A: 13, B: 2}, Bond{A: 0, B: 7})
	var want float64
	for _, e := range edges {
		var zz float64
		for b, p := range probs {
			if (b>>e.A)&1 == (b>>e.B)&1 {
				zz += p
			} else {
				zz -= p
			}
		}
		want += (1 - zz) / 2
	}
	if got := MaxCutExpectation(probs, edges); math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxCutExpectation = %v, per-edge sum %v", got, want)
	}
}

// simulateProbs runs c by direct dense matrix application — an
// implementation independent of the statevec package so circuit tests stay
// self-contained.
func simulateProbs(t *testing.T, c *Circuit) []float64 {
	t.Helper()
	amps := make([]complex128, 1<<c.N)
	amps[0] = 1
	for _, g := range c.Gates {
		m := g.Matrix()
		k := g.K()
		next := make([]complex128, len(amps))
		for b := range amps {
			// Gather gate-local row index of b.
			var r int
			for j, q := range g.Qubits {
				if b>>q&1 == 1 {
					r |= 1 << j
				}
			}
			// Σ_col m[r][col] · amp(b with gate bits set to col).
			for col := 0; col < 1<<k; col++ {
				src := b
				for j, q := range g.Qubits {
					if col>>j&1 == 1 {
						src |= 1 << q
					} else {
						src &^= 1 << q
					}
				}
				next[b] += m.Data[r*m.Dim()+col] * amps[src]
			}
		}
		amps = next
	}
	probs := make([]float64, len(amps))
	for i, a := range amps {
		probs[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return probs
}

func TestVQEZeroParamsGroundAnchor(t *testing.T) {
	n, layers := 4, 2
	c := HardwareEfficientAnsatz(n, layers, make([]float64, layers*n))
	probs := simulateProbs(t, c)
	if math.Abs(probs[0]-1) > 1e-12 {
		t.Fatalf("zero-angle ansatz moved |0…0⟩: p(0)=%v", probs[0])
	}
}

// The synthesized Ry must match the real rotation: a single-qubit ansatz
// layer at angle θ prepares cos(θ/2)|0⟩ + sin(θ/2)|1⟩.
func TestAnsatzRySynthesis(t *testing.T) {
	theta := 0.7331
	c := HardwareEfficientAnsatz(1, 1, []float64{theta})
	probs := simulateProbs(t, c)
	if d := math.Abs(probs[1] - math.Pow(math.Sin(theta/2), 2)); d > 1e-12 {
		t.Fatalf("Ry synthesis off by %v in p(1)", d)
	}
}

func TestSweepParamsDeterministicAnchored(t *testing.T) {
	a := SweepParams(11, 4, 6)
	b := SweepParams(11, 4, 6)
	for _, v := range a[0] {
		if v != 0 {
			t.Fatalf("sweep vector 0 not all-zero: %v", a[0])
		}
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("sweep params differ at [%d][%d]: %v vs %v", i, j, a[i][j], b[i][j])
			}
			if a[i][j] < -math.Pi || a[i][j] > math.Pi {
				t.Fatalf("param out of range: %v", a[i][j])
			}
		}
	}
	if c := SweepParams(12, 4, 6); c[1][0] == a[1][0] {
		t.Fatalf("different seeds produced identical params")
	}
}

func TestInjectPauliNoiseDeterministicAndBounded(t *testing.T) {
	base := Supremacy(SupremacyOptions{Rows: 2, Cols: 3, Depth: 6, Seed: 5})
	a := InjectPauliNoise(base, 0.2, 9)
	b := InjectPauliNoise(base, 0.2, 9)
	var bufA, bufB bytes.Buffer
	if err := WriteText(&bufA, a); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	if err := WriteText(&bufB, b); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("same seed produced different noisy circuits")
	}
	if len(a.Gates) <= len(base.Gates) {
		t.Fatalf("p=0.2 injected no Paulis in %d gates", len(base.Gates))
	}
	if clean := InjectPauliNoise(base, 0, 9); len(clean.Gates) != len(base.Gates) {
		t.Fatalf("p=0 injected %d extra gates", len(clean.Gates)-len(base.Gates))
	}
}
