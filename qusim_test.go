package qusim

import (
	"math"
	"math/rand"
	"testing"
)

// Tests of the public facade: everything an external user touches.

func TestPublicQuickstartFlow(t *testing.T) {
	c := NewCircuit(2)
	c.Append(H(0))
	c.Append(CNOT(0, 1))
	st := NewState(2)
	Simulate(c, st)
	if math.Abs(st.Probability(0)-0.5) > 1e-12 || math.Abs(st.Probability(3)-0.5) > 1e-12 {
		t.Errorf("Bell state probabilities: %v %v", st.Probability(0), st.Probability(3))
	}
}

func TestPublicDistributedFlow(t *testing.T) {
	c := Supremacy(SupremacyOptions{Rows: 4, Cols: 3, Depth: 16, Seed: 1, SkipInitialH: true})
	plan, err := Schedule(c, DefaultScheduleOptions(c.N-2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDistributed(plan, DistOptions{Ranks: 4, Init: InitUniform})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Norm-1) > 1e-9 {
		t.Errorf("norm %v", res.Norm)
	}
	st := NewUniformState(c.N)
	Simulate(c, st)
	if math.Abs(res.Entropy-st.Entropy()) > 1e-9 {
		t.Errorf("distributed entropy %v vs single-node %v", res.Entropy, st.Entropy())
	}
}

func TestPublicBaselineFlow(t *testing.T) {
	c := Supremacy(SupremacyOptions{Rows: 3, Cols: 3, Depth: 12, Seed: 2, SkipInitialH: true})
	res, err := RunBaseline(c, BaselineOptions{Ranks: 4, Init: InitUniform})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Norm-1) > 1e-9 {
		t.Errorf("norm %v", res.Norm)
	}
}

func TestPublicCircuitFamilies(t *testing.T) {
	if got := QFT(5); got.N != 5 || len(got.Gates) != 15 {
		t.Errorf("QFT(5): n=%d gates=%d", got.N, len(got.Gates))
	}
	if got := GHZ(6); got.N != 6 || len(got.Gates) != 6 {
		t.Errorf("GHZ(6): n=%d gates=%d", got.N, len(got.Gates))
	}
	g := Grover(4, 7, 3)
	st := NewState(4)
	Simulate(g, st)
	if st.Probability(7) < 0.9 {
		t.Errorf("Grover P(marked) = %v", st.Probability(7))
	}
	for _, n := range []int{30, 36, 42, 45, 49} {
		r, c := GridForQubits(n)
		if r*c != n {
			t.Errorf("GridForQubits(%d) = %dx%d", n, r, c)
		}
	}
}

func TestPublicGateConstructors(t *testing.T) {
	gates := []Gate{H(0), X(0), Y(0), Z(0), S(0), T(0), XHalf(0), YHalf(0),
		Rz(0, 0.5), CZ(0, 1), CNOT(0, 1), Swap(0, 1)}
	c := NewCircuit(2)
	c.Append(gates...)
	st := NewState(2)
	Simulate(c, st)
	if math.Abs(st.Norm()-1) > 1e-12 {
		t.Errorf("norm after all constructors: %v", st.Norm())
	}
}

func TestPublicTune(t *testing.T) {
	// The table prices k = 1, 2 from the timings and the rest from the
	// compiled-in one, and schedules.
	costs := Tune(2, 12)
	if costs.Dense[0] != 1 || !(costs.Dense[1] > 0) || !(costs.Dense[4] > 0) || !(costs.Diag > 0) {
		t.Errorf("Tune(2, 12) = %+v", costs)
	}
	opts := DefaultScheduleOptions(6)
	opts.Costs = costs
	c := GHZ(6)
	plan, err := Schedule(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(6)
	if err := plan.Run(st); err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Norm()-1) > 1e-12 {
		t.Errorf("norm after a run planned with tuned costs: %v", st.Norm())
	}
}

func TestPublicNoiseAndXEB(t *testing.T) {
	// Depth 28 so the output distribution has converged to Porter–Thomas
	// (linear XEB ≈ 1 only holds in the chaotic regime).
	c := Supremacy(SupremacyOptions{Rows: 3, Cols: 3, Depth: 28, Seed: 4})
	rng := rand.New(rand.NewSource(1))
	res, err := SimulateNoisy(c, DepolarizingNoise(0.01), 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFidelity <= 0 || res.MeanFidelity > 1+1e-12 {
		t.Errorf("mean fidelity %v", res.MeanFidelity)
	}
	ideal := NewState(c.N)
	Simulate(c, ideal)
	probs := ideal.Probabilities()
	lin, err := LinearXEB(c.N, probs, ideal.Sample(rng, 20000))
	if err != nil {
		t.Fatal(err)
	}
	// For an ideal sampler the estimator converges to 2^n·Σp² − 1 (≈ 1 in
	// the Porter–Thomas limit; instance-specific for 9 qubits).
	var sum2 float64
	for _, p := range probs {
		sum2 += p * p
	}
	want := math.Pow(2, float64(c.N))*sum2 - 1
	if math.Abs(lin-want) > 0.15 {
		t.Errorf("linear XEB of ideal samples %v, instance value %v", lin, want)
	}
	if pt := PorterThomasEntropy(9); math.Abs(pt-(9*math.Ln2-1+0.5772156649)) > 1e-9 {
		t.Errorf("PorterThomasEntropy(9) = %v", pt)
	}
}

func TestPublicEmulateQFT(t *testing.T) {
	n := 8
	a := NewState(n)
	a.Apply(X(2).Matrix(), 2)
	b := a.Clone()
	Simulate(QFT(n), a)
	EmulateQFT(b)
	if d := a.MaxDiff(b); d > 1e-9 {
		t.Errorf("EmulateQFT vs gate QFT: %g", d)
	}
}
