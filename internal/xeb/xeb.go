// Package xeb implements the cross-entropy benchmarking statistics of
// Boixo et al. [5] — the reason quantum supremacy circuits are simulated at
// all (Sec. 1: "running such circuits is still of great use to calibrate,
// validate, and benchmark near-term quantum devices"). Given the simulator's
// ideal output probabilities and samples from a device (or from the
// simulator itself), it estimates the circuit fidelity via cross entropy
// and checks the Porter–Thomas shape of the output distribution.
package xeb

import (
	"fmt"
	"math"
	"sort"
)

// PorterThomasEntropy returns the expected Shannon entropy (nats) of the
// output distribution of a chaotic n-qubit circuit:
// S_PT = n·ln2 − (1 − γ), with γ the Euler–Mascheroni constant.
func PorterThomasEntropy(n int) float64 {
	const gamma = 0.57721566490153286
	return float64(n)*math.Ln2 - (1 - gamma)
}

// CrossEntropy returns −⟨ln p(x)⟩ over the sampled bitstrings, evaluated
// with the ideal probabilities probs.
func CrossEntropy(probs []float64, samples []int) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("xeb: no samples")
	}
	var s float64
	for _, x := range samples {
		if x < 0 || x >= len(probs) {
			return 0, fmt.Errorf("xeb: sample %d out of range", x)
		}
		p := probs[x]
		if p <= 0 {
			return 0, fmt.Errorf("xeb: sampled a zero-probability state %d", x)
		}
		s -= math.Log(p)
	}
	return s / float64(len(samples)), nil
}

// FidelityFromCrossEntropy estimates the circuit fidelity α from the
// measured cross entropy, per Boixo et al.:
//
//	α = (S_0 − CE) / (S_0 − S_PT),
//
// where S_0 = n·ln2 + γ is the cross entropy of the uniform (fully
// depolarized) sampler and S_PT that of an ideal device. α ≈ 1 for perfect
// sampling, α ≈ 0 for uniform noise.
func FidelityFromCrossEntropy(n int, crossEntropy float64) float64 {
	const gamma = 0.57721566490153286
	s0 := float64(n)*math.Ln2 + gamma
	spt := float64(n)*math.Ln2 - 1 + gamma
	return (s0 - crossEntropy) / (s0 - spt)
}

// LinearXEB returns the linear cross-entropy benchmarking fidelity
// 2^n·⟨p(x)⟩ − 1: ≈ 1 for ideal sampling from a Porter–Thomas
// distribution, ≈ 0 for uniform sampling.
func LinearXEB(n int, probs []float64, samples []int) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("xeb: no samples")
	}
	var mean float64
	for _, x := range samples {
		if x < 0 || x >= len(probs) {
			return 0, fmt.Errorf("xeb: sample %d out of range", x)
		}
		mean += probs[x]
	}
	mean /= float64(len(samples))
	return math.Pow(2, float64(n))*mean - 1, nil
}

// PorterThomasKS returns the Kolmogorov–Smirnov distance between the
// distribution of scaled probabilities N·p and the exponential
// distribution e^{−x} that Porter–Thomas predicts for chaotic circuits.
// Values ≪ 1 indicate the circuit has converged to the chaotic regime.
func PorterThomasKS(probs []float64) float64 {
	n := len(probs)
	xs := make([]float64, n)
	for i, p := range probs {
		xs[i] = p * float64(n)
	}
	sort.Float64s(xs)
	var ks float64
	for i, x := range xs {
		cdf := 1 - math.Exp(-x)
		emp0 := float64(i) / float64(n)
		emp1 := float64(i+1) / float64(n)
		if d := math.Abs(cdf - emp0); d > ks {
			ks = d
		}
		if d := math.Abs(cdf - emp1); d > ks {
			ks = d
		}
	}
	return ks
}

// DepolarizedProbs mixes the ideal distribution with uniform noise at
// fidelity alpha: p' = α·p + (1−α)/2^n. Models a noisy device for
// validating the fidelity estimators.
func DepolarizedProbs(probs []float64, alpha float64) []float64 {
	out := make([]float64, len(probs))
	u := 1 / float64(len(probs))
	for i, p := range probs {
		out[i] = alpha*p + (1-alpha)*u
	}
	return out
}
