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

func TestSampleDeterministicAndInRange(t *testing.T) {
	probs := porterThomasProbs(8, rand.New(rand.NewSource(1)))
	a, err := Sample(probs, 500, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	b, err := Sample(probs, 500, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at shot %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= len(probs) {
			t.Fatalf("shot %d out of range: %d", i, a[i])
		}
	}
}

func TestSampleNeverReturnsZeroProbabilityState(t *testing.T) {
	// Half the states carry zero mass; no draw may land on them.
	probs := make([]float64, 64)
	for i := 0; i < len(probs); i += 2 {
		probs[i] = 1.0 / 32
	}
	samples, err := Sample(probs, 2000, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	for _, s := range samples {
		if probs[s] == 0 {
			t.Fatalf("sampled zero-probability state %d", s)
		}
	}
}

func TestSampleRejectsDegenerateInputs(t *testing.T) {
	if _, err := Sample([]float64{0.5, 0.5}, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatalf("zero shots accepted")
	}
	if _, err := Sample([]float64{0, 0}, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatalf("zero-mass distribution accepted")
	}
	if _, err := Sample([]float64{0.5, -0.1}, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatalf("negative probability accepted")
	}
}

// The estimators' correctness bound: sampling from the ideal Porter–Thomas
// distribution must score ≈ 1 on both fidelity estimators, and uniform
// sampling ≈ 0.
func TestXEBScoreSanityBounds(t *testing.T) {
	const n, shots = 10, 20000
	probs := porterThomasProbs(n, rand.New(rand.NewSource(7)))

	ideal, err := Sample(probs, shots, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
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

	uniform := UniformSample(n, shots, rand.New(rand.NewSource(9)))
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
	mixed, err := Sample(DepolarizedProbs(probs, 0.5), shots, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	lin, err = LinearXEB(n, probs, mixed)
	if err != nil {
		t.Fatalf("LinearXEB: %v", err)
	}
	if math.Abs(lin-0.5) > 0.1 {
		t.Fatalf("α=0.5 mix scored %v, want ≈ 0.5", lin)
	}
}
