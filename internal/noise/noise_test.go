package noise

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qusim/internal/circuit"
)

func smallCircuit(n, depth int, seed int64) *circuit.Circuit {
	r, c := circuit.GridForQubits(n)
	return circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: seed})
}

func TestZeroNoiseIsIdeal(t *testing.T) {
	c := smallCircuit(9, 10, 1)
	rng := rand.New(rand.NewSource(1))
	res, err := Run(c, Depolarizing(0), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanFidelity-1) > 1e-10 {
		t.Errorf("zero-noise fidelity %v, want 1", res.MeanFidelity)
	}
}

func TestFidelityDecreasesWithNoise(t *testing.T) {
	c := smallCircuit(9, 10, 2)
	rng := rand.New(rand.NewSource(2))
	var prev = 1.1
	for _, p := range []float64{0.001, 0.01, 0.05} {
		res, err := Run(c, Depolarizing(p), 30, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanFidelity >= prev {
			t.Errorf("p=%v: fidelity %v did not decrease (prev %v)", p, res.MeanFidelity, prev)
		}
		prev = res.MeanFidelity
	}
}

func TestFidelityMatchesFirstOrderEstimate(t *testing.T) {
	c := smallCircuit(9, 12, 3)
	p := 0.004
	want := ExpectedGateFidelity(c, Depolarizing(p))
	rng := rand.New(rand.NewSource(3))
	res, err := Run(c, Depolarizing(p), 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Trajectories without any insertion contribute fidelity 1; those with
	// insertions contribute ≈ 0 for chaotic circuits — so F ≈ (1−p)^g.
	if math.Abs(res.MeanFidelity-want) > 0.08 {
		t.Errorf("fidelity %v, first-order estimate %v", res.MeanFidelity, want)
	}
}

// Equal seeds also replay a study bit for bit: every draw comes from rng.
func TestMeanProbsNormalized(t *testing.T) {
	c := smallCircuit(6, 8, 4)
	res, err := Run(c, Channel{Name: "dephasing", PZ: 0.02}, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.MeanProbs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mean probabilities sum to %v", sum)
	}
	again, err := Run(c, Channel{Name: "dephasing", PZ: 0.02}, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("two runs from seed 4 differ: fidelity %v then %v", res.MeanFidelity, again.MeanFidelity)
	}
}

func TestNoisyXEBFidelityDrops(t *testing.T) {
	// The full calibration loop: noisy trajectories sampled against the
	// ideal distribution give linear-XEB fidelity well below 1.
	n := 9
	c := smallCircuit(n, 16, 5)
	rng := rand.New(rand.NewSource(5))
	ideal, err := Run(c, Depolarizing(0), 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Run(c, Depolarizing(0.03), 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	var klNoisy float64 // KL(ideal ‖ noisy); noisy is nowhere 0 where ideal is not
	for i, p := range ideal.MeanProbs {
		if p > 0 {
			klNoisy += p * math.Log(p/noisy.MeanProbs[i])
		}
	}
	if klNoisy < 1e-4 {
		t.Errorf("noisy distribution suspiciously close to ideal: KL = %v", klNoisy)
	}
	if noisy.MeanFidelity > 0.8 {
		t.Errorf("noisy fidelity %v, expected well below 1", noisy.MeanFidelity)
	}
}

func TestChannelValidation(t *testing.T) {
	c := smallCircuit(6, 4, 6)
	rng := rand.New(rand.NewSource(6))
	if _, err := Run(c, Channel{PX: 0.8, PY: 0.3}, 1, rng); err == nil {
		t.Error("invalid channel accepted")
	}
	if _, err := Run(c, Channel{PX: -0.1}, 1, rng); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := Run(c, Depolarizing(0.01), 0, rng); err == nil {
		t.Error("zero trajectories accepted")
	}
}

func TestChannelConstructors(t *testing.T) {
	d := Depolarizing(0.03)
	if math.Abs(d.PX-0.01) > 1e-15 || math.Abs(d.PY-0.01) > 1e-15 || math.Abs(d.PZ-0.01) > 1e-15 {
		t.Errorf("Depolarizing(0.03) = %+v", d)
	}
}
