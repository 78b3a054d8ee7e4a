package xeb

import (
	"math"
	"math/rand"
	"testing"
)

// porterThomasProbs draws a normalized Porter–Thomas (exponential)
// distribution over n qubits — the output shape of a chaotic circuit, so
// the fidelity estimators have their design-point input.
func porterThomasProbs(n int, rng *rand.Rand) []float64 {
	probs := make([]float64, 1<<n)
	var total float64
	for i := range probs {
		probs[i] = rng.ExpFloat64()
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	return probs
}

// The estimators' correctness bound: sampling from the ideal Porter–Thomas
// distribution must score ≈ 1 on both fidelity estimators, and uniform
// sampling ≈ 0.
func TestXEBScoreSanityBounds(t *testing.T) {
	const n, shots = 10, 20000
	probs := porterThomasProbs(n, rand.New(rand.NewSource(7)))

	ideal := sampleFrom(probs, shots, rand.New(rand.NewSource(8)))
	lin, err := LinearXEB(n, probs, ideal)
	if err != nil {
		t.Fatalf("LinearXEB: %v", err)
	}
	if lin < 0.8 || lin > 1.2 {
		t.Fatalf("ideal-sampler linear XEB = %v, want ≈ 1", lin)
	}
	ce, err := CrossEntropy(probs, ideal)
	if err != nil {
		t.Fatalf("CrossEntropy: %v", err)
	}
	if alpha := FidelityFromCrossEntropy(n, ce); alpha < 0.8 || alpha > 1.2 {
		t.Fatalf("ideal-sampler cross-entropy fidelity = %v, want ≈ 1", alpha)
	}

	rng := rand.New(rand.NewSource(9))
	uniform := make([]int, shots)
	for i := range uniform {
		uniform[i] = rng.Intn(1 << n)
	}
	lin, err = LinearXEB(n, probs, uniform)
	if err != nil {
		t.Fatalf("LinearXEB: %v", err)
	}
	if math.Abs(lin) > 0.1 {
		t.Fatalf("uniform-sampler linear XEB = %v, want ≈ 0", lin)
	}
	ce, err = CrossEntropy(probs, uniform)
	if err != nil {
		t.Fatalf("CrossEntropy: %v", err)
	}
	if alpha := FidelityFromCrossEntropy(n, ce); math.Abs(alpha) > 0.1 {
		t.Fatalf("uniform-sampler cross-entropy fidelity = %v, want ≈ 0", alpha)
	}

	// A depolarized mix at fidelity α must land near α on the estimator.
	mixed := sampleFrom(DepolarizedProbs(probs, 0.5), shots, rand.New(rand.NewSource(10)))
	lin, err = LinearXEB(n, probs, mixed)
	if err != nil {
		t.Fatalf("LinearXEB: %v", err)
	}
	if math.Abs(lin-0.5) > 0.1 {
		t.Fatalf("α=0.5 mix scored %v, want ≈ 0.5", lin)
	}
}
