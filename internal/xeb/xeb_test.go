package xeb

import (
	"math"
	"math/rand"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/statevec"
)

func supremacyProbs(t *testing.T, n, depth int, seed int64) []float64 {
	t.Helper()
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: seed})
	v := statevec.New(n)
	for i := range circ.Gates {
		g := &circ.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
	}
	return v.Probabilities()
}

func sampleFrom(probs []float64, shots int, rng *rand.Rand) []int {
	cdf := make([]float64, len(probs)+1)
	for i, p := range probs {
		cdf[i+1] = cdf[i] + p
	}
	out := make([]int, shots)
	for s := range out {
		r := rng.Float64() * cdf[len(cdf)-1]
		lo, hi := 0, len(probs)
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid+1] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[s] = lo
	}
	return out
}

func TestPorterThomasEntropyValue(t *testing.T) {
	// S_PT(16) = 16·ln2 − (1−γ) ≈ 11.0895 − 0.4228 ≈ 10.667.
	got := PorterThomasEntropy(16)
	want := 16*math.Ln2 - (1 - 0.57721566490153286)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PorterThomasEntropy(16) = %v, want %v", got, want)
	}
}

func TestSupremacyCircuitReachesPorterThomas(t *testing.T) {
	// A deep supremacy circuit's output entropy should approach S_PT and
	// its scaled probabilities should match the exponential distribution.
	n := 12
	probs := supremacyProbs(t, n, 32, 9)
	v := 0.0
	for _, p := range probs {
		if p > 0 {
			v -= p * math.Log(p)
		}
	}
	if math.Abs(v-PorterThomasEntropy(n)) > 0.1 {
		t.Errorf("entropy %v, Porter-Thomas predicts %v", v, PorterThomasEntropy(n))
	}
	if ks := PorterThomasKS(probs); ks > 0.08 {
		t.Errorf("KS distance to Porter-Thomas %v, want < 0.08 at depth 32", ks)
	}
}

func TestShallowCircuitIsNotPorterThomas(t *testing.T) {
	probs := supremacyProbs(t, 12, 2, 9)
	if ks := PorterThomasKS(probs); ks < 0.1 {
		t.Errorf("depth-2 circuit should be far from Porter-Thomas, KS = %v", ks)
	}
}

func TestFidelityEstimatorsIdealSampler(t *testing.T) {
	n := 12
	probs := supremacyProbs(t, n, 24, 10)
	rng := rand.New(rand.NewSource(1))
	samples := sampleFrom(probs, 20000, rng)

	ce, err := CrossEntropy(probs, samples)
	if err != nil {
		t.Fatal(err)
	}
	alpha := FidelityFromCrossEntropy(n, ce)
	if math.Abs(alpha-1) > 0.07 {
		t.Errorf("ideal sampler cross-entropy fidelity %v, want ≈ 1", alpha)
	}
	lin, err := LinearXEB(n, probs, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lin-1) > 0.1 {
		t.Errorf("ideal sampler linear XEB %v, want ≈ 1", lin)
	}
}

func TestFidelityEstimatorsUniformSampler(t *testing.T) {
	n := 12
	probs := supremacyProbs(t, n, 24, 11)
	rng := rand.New(rand.NewSource(2))
	samples := make([]int, 20000)
	for i := range samples {
		samples[i] = rng.Intn(1 << n)
	}
	ce, err := CrossEntropy(probs, samples)
	if err != nil {
		t.Fatal(err)
	}
	alpha := FidelityFromCrossEntropy(n, ce)
	if math.Abs(alpha) > 0.07 {
		t.Errorf("uniform sampler fidelity %v, want ≈ 0", alpha)
	}
	lin, err := LinearXEB(n, probs, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lin) > 0.1 {
		t.Errorf("uniform sampler linear XEB %v, want ≈ 0", lin)
	}
}

func TestFidelityTracksDepolarization(t *testing.T) {
	// Sampling from a depolarized distribution at fidelity α must recover
	// α (the calibration use case).
	n := 12
	probs := supremacyProbs(t, n, 24, 12)
	rng := rand.New(rand.NewSource(3))
	for _, alpha := range []float64{0.25, 0.5, 0.75} {
		noisy := DepolarizedProbs(probs, alpha)
		samples := sampleFrom(noisy, 40000, rng)
		lin, err := LinearXEB(n, probs, samples)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lin-alpha) > 0.1 {
			t.Errorf("alpha=%v: linear XEB %v", alpha, lin)
		}
	}
}

func TestErrorsOnBadSamples(t *testing.T) {
	probs := []float64{0.5, 0.5}
	if _, err := CrossEntropy(probs, nil); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := CrossEntropy(probs, []int{5}); err == nil {
		t.Error("out-of-range sample accepted")
	}
	if _, err := LinearXEB(1, probs, []int{-1}); err == nil {
		t.Error("negative sample accepted")
	}
}
