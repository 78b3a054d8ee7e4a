package circuit

import (
	"math"
	"testing"

	"qusim/internal/statevec"
)

func TestBernsteinVaziraniRecoversSecret(t *testing.T) {
	for _, secret := range []int{0, 1, 0b1011, 0b111111} {
		n := 6
		c := BernsteinVazirani(n, secret)
		v := run(c)
		if p := v.Probability(secret); math.Abs(p-1) > 1e-10 {
			t.Errorf("secret %06b: P = %v, want 1", secret, p)
		}
	}
}

func TestBernsteinVaziraniIsMostlyDiagonal(t *testing.T) {
	c := BernsteinVazirani(8, 0b10110101)
	diag := 0
	for _, g := range c.Gates {
		if g.IsDiagonal() {
			diag++
		}
	}
	if diag != 5 { // popcount of the secret
		t.Errorf("expected 5 Z gates, found %d diagonal gates", diag)
	}
}

func TestPhaseEstimationExact(t *testing.T) {
	// φ = k/2^t is represented exactly: the counting register reads k.
	t0 := 5
	for _, k := range []int{0, 1, 7, 19, 31} {
		phi := float64(k) / 32
		c := PhaseEstimation(t0, phi)
		v := run(c)
		// Counting register is qubits 0..t-1, estimate read directly.
		best, bestP := -1, 0.0
		for b := 0; b < 1<<t0; b++ {
			p := v.Probability(b | 1<<t0) // target qubit stays |1⟩
			if p > bestP {
				best, bestP = b, p
			}
		}
		if best != k || bestP < 0.99 {
			t.Errorf("phi=%d/32: estimated %d with P=%v", k, best, bestP)
		}
	}
}

func TestPhaseEstimationInexactPeaksNearby(t *testing.T) {
	t0 := 6
	phi := 0.3 // not a multiple of 1/64; the peak must be at round(0.3·64) = 19
	c := PhaseEstimation(t0, phi)
	v := run(c)
	best, bestP := -1, 0.0
	for b := 0; b < 1<<t0; b++ {
		p := v.Probability(b | 1<<t0)
		if p > bestP {
			best, bestP = b, p
		}
	}
	if best != 19 {
		t.Errorf("phi=0.3: peak at %d, want 19 (P=%v)", best, bestP)
	}
	if bestP < 0.4 {
		t.Errorf("peak probability %v suspiciously low", bestP)
	}
}

func TestRandomCircuitDeterministic(t *testing.T) {
	a := RandomCircuit(8, 50, 3)
	b := RandomCircuit(8, 50, 3)
	if len(a.Gates) != 50 || len(b.Gates) != 50 {
		t.Fatalf("gate counts %d, %d", len(a.Gates), len(b.Gates))
	}
	for i := range a.Gates {
		if a.Gates[i].String() != b.Gates[i].String() {
			t.Fatalf("gate %d differs", i)
		}
	}
	c := RandomCircuit(8, 50, 4)
	diff := false
	for i := range a.Gates {
		if a.Gates[i].String() != c.Gates[i].String() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds gave identical circuits")
	}
}

func TestRandomCircuitNormPreserved(t *testing.T) {
	c := RandomCircuit(8, 60, 5)
	v := statevec.New(8)
	for i := range c.Gates {
		g := &c.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
	}
	if math.Abs(v.Norm()-1) > 1e-10 {
		t.Errorf("norm %v", v.Norm())
	}
}
