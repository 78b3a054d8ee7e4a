package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"qusim/internal/gate"
)

func TestNewZeroState(t *testing.T) {
	v := New(4)
	if v.Amplitude(0) != 1 {
		t.Errorf("amp[0] = %v, want 1", v.Amplitude(0))
	}
	if math.Abs(v.Norm()-1) > 1e-14 {
		t.Errorf("norm = %v", v.Norm())
	}
}

func TestNewUniformMatchesHadamards(t *testing.T) {
	n := 6
	u := NewUniform(n)
	h := New(n)
	for q := 0; q < n; q++ {
		h.Apply(gate.H(), q)
	}
	if d := u.MaxDiff(h); d > 1e-12 {
		t.Errorf("uniform init vs Hadamard cycle: max diff %g", d)
	}
}

func TestFromAmplitudesPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromAmplitudes(make([]complex128, 3))
}

func TestApplyXFlipsBit(t *testing.T) {
	v := New(3)
	v.Apply(gate.X(), 1)
	if cmplx.Abs(v.Amplitude(2)-1) > 1e-14 {
		t.Errorf("X on qubit 1 of |000⟩: amp[2] = %v", v.Amplitude(2))
	}
}

func TestApplyUnsortedQubits(t *testing.T) {
	// CNOT with control qubit 2, target qubit 0: |100⟩ → |101⟩.
	v := New(3)
	v.Apply(gate.X(), 2)
	// CNOT matrix convention: gate-local 0 = target, 1 = control.
	v.Apply(gate.CNOT(), 0, 2)
	if cmplx.Abs(v.Amplitude(0b101)-1) > 1e-14 {
		t.Errorf("CNOT(t=0,c=2)|100⟩: got amp %v at 101", v.Amplitude(0b101))
	}
	// Now reversed operand order: control 0, target 2 on |001⟩ → |101⟩.
	w := New(3)
	w.Apply(gate.X(), 0)
	w.Apply(gate.CNOT(), 2, 0)
	if cmplx.Abs(w.Amplitude(0b101)-1) > 1e-14 {
		t.Errorf("CNOT(t=2,c=0)|001⟩: got amp %v at 101", w.Amplitude(0b101))
	}
}

func TestBellState(t *testing.T) {
	v := New(2)
	v.Apply(gate.H(), 0)
	v.Apply(gate.CNOT(), 1, 0) // target 1, control 0
	want := 1 / math.Sqrt2
	if cmplx.Abs(v.Amplitude(0)-complex(want, 0)) > 1e-14 ||
		cmplx.Abs(v.Amplitude(3)-complex(want, 0)) > 1e-14 {
		t.Errorf("Bell state amps: %v %v %v %v",
			v.Amplitude(0), v.Amplitude(1), v.Amplitude(2), v.Amplitude(3))
	}
}

func TestApplyMatchesDenseEmbedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		k := 1 + rng.Intn(3)
		u := gate.RandomUnitary(k, rng)
		qubits := rng.Perm(n)[:k]
		v := randomVector(n, rng)
		w := v.Clone()
		v.Apply(u, qubits...)
		// Dense reference.
		full := gate.Embed(u, qubits, n)
		d := 1 << n
		ref := make([]complex128, d)
		for r := 0; r < d; r++ {
			var acc complex128
			for c := 0; c < d; c++ {
				acc += full.Data[r*d+c] * w.Amps[c]
			}
			ref[r] = acc
		}
		for i := range ref {
			if cmplx.Abs(ref[i]-v.Amps[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDiagonalFastPathMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 7
	u := gate.RandomDiagonal(2, rng)
	qubits := []int{5, 2} // unsorted on purpose
	v := randomVector(n, rng)
	w := v.Clone()
	v.Apply(u, qubits...)
	w.ApplyDense(u, qubits...)
	if d := v.MaxDiff(w); d > 1e-10 {
		t.Errorf("diagonal fast path vs dense: max diff %g", d)
	}
	x := v.Clone()
	y := v.Clone()
	x.ApplyDiagonal(u.Diagonal(), qubits...)
	y.ApplyDense(u, qubits...)
	if d := x.MaxDiff(y); d > 1e-10 {
		t.Errorf("ApplyDiagonal vs dense: max diff %g", d)
	}
}

func TestProbabilityAndMarginal(t *testing.T) {
	v := New(2)
	v.Apply(gate.H(), 0)
	if math.Abs(v.Probability(0)-0.5) > 1e-14 {
		t.Errorf("P(00) = %v", v.Probability(0))
	}
	if math.Abs(v.MarginalProbability(0)-0.5) > 1e-14 {
		t.Errorf("P(q0=1) = %v", v.MarginalProbability(0))
	}
	if v.MarginalProbability(1) > 1e-14 {
		t.Errorf("P(q1=1) = %v", v.MarginalProbability(1))
	}
}

func TestEntropyUniform(t *testing.T) {
	n := 5
	v := NewUniform(n)
	want := float64(n) * math.Ln2
	if math.Abs(v.Entropy()-want) > 1e-12 {
		t.Errorf("entropy of uniform %d-qubit state = %v, want %v", n, v.Entropy(), want)
	}
	z := New(n)
	if z.Entropy() > 1e-14 {
		t.Errorf("entropy of basis state = %v, want 0", z.Entropy())
	}
}

func TestRenormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	v := randomVector(5, rng)
	for i := range v.Amps {
		v.Amps[i] *= 3
	}
	v.Renormalize()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("norm after renormalize = %v", v.Norm())
	}
}

func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	v := New(1)
	v.Apply(gate.H(), 0)
	shots := 20000
	counts := [2]int{}
	for _, s := range v.Sample(rng, shots) {
		counts[s]++
	}
	frac := float64(counts[1]) / float64(shots)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("sampled P(1) = %v, want ≈0.5", frac)
	}
}

func TestSampleNeverSelectsZeroAmplitudeState(t *testing.T) {
	// Exact-zero amplitudes adjacent to the support: no draw may select a
	// zero-probability basis state regardless of where the RNG lands.
	v := New(3)
	v.Amps[0] = 0
	v.Amps[1] = complex(math.Sqrt(0.5), 0)
	v.Amps[6] = complex(0, math.Sqrt(0.5))
	rng := rand.New(rand.NewSource(37))
	for _, s := range v.Sample(rng, 2000) {
		if s != 1 && s != 6 {
			t.Fatalf("sampled zero-probability state %d", s)
		}
	}
}

func TestInnerProductAndFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	v := randomVector(6, rng)
	if math.Abs(real(v.InnerProduct(v))-1) > 1e-12 {
		t.Errorf("⟨v|v⟩ = %v", v.InnerProduct(v))
	}
	if math.Abs(v.Fidelity(v)-1) > 1e-12 {
		t.Errorf("F(v,v) = %v", v.Fidelity(v))
	}
	// Fidelity is invariant under global phase.
	w := v.Clone()
	for i := range w.Amps {
		w.Amps[i] *= cmplx.Exp(complex(0, 1.1))
	}
	if math.Abs(v.Fidelity(w)-1) > 1e-12 {
		t.Errorf("F(v, e^{iφ}v) = %v", v.Fidelity(w))
	}
}

// TestApplyCZBetweenStates: the diagonal sweep and Apply(gate.CZ()) are two
// routes to the same diagonal kernel, so they agree bit for bit, with the
// qubits given in either order.
func TestApplyCZBetweenStates(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	v := randomVector(5, rng)
	w := v.Clone()
	v.ApplyDiagonal([]complex128{1, 1, 1, -1}, 3, 1)
	w.Apply(gate.CZ(), 1, 3)
	for i := range v.Amps {
		if v.Amps[i] != w.Amps[i] {
			t.Fatalf("diagonal vs matrix CZ: amplitude %d is %v, want %v", i, v.Amps[i], w.Amps[i])
		}
	}
}

func randomVector(n int, rng *rand.Rand) *Vector {
	v := New(n)
	var norm float64
	for i := range v.Amps {
		v.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(v.Amps[i])*real(v.Amps[i]) + imag(v.Amps[i])*imag(v.Amps[i])
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range v.Amps {
		v.Amps[i] *= inv
	}
	return v
}

// TestStatesAgreeAcrossPrecisions: on states that are exact in both
// precisions — the uniform state at even n, basis states, and a state of
// four ±1/2 and ±i/2 amplitudes — State[complex64] gives bitwise the
// probabilities and marginals of State[complex128], and the same shots
// for each seed: every method widens an amplitude before it squares it.
func TestStatesAgreeAcrossPrecisions(t *testing.T) {
	type pair struct {
		name   string
		single *State[complex64]
		double *Vector
	}
	var pairs []pair
	for n := 2; n <= 10; n += 2 {
		pairs = append(pairs, pair{fmt.Sprintf("uniform%d", n), Prepare[complex64](StartUniform, n), NewUniform(n)})
	}
	basis := func(n int, amps map[int]complex128) pair {
		s, d := make([]complex64, 1<<n), make([]complex128, 1<<n)
		for b, a := range amps {
			s[b], d[b] = complex64(a), a
		}
		return pair{fmt.Sprint(amps), FromAmplitudes(s), FromAmplitudes(d)}
	}
	pairs = append(pairs, pair{"zero", Prepare[complex64](StartZero, 6), New(6)},
		basis(6, map[int]complex128{5: 1}), basis(6, map[int]complex128{63: -1i}),
		basis(5, map[int]complex128{3: 0.5, 9: -0.5, 17: 0.5i, 30: -0.5i}))

	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, p := range pairs {
		if !slices.EqualFunc(p.single.Probabilities(), p.double.Probabilities(), same) {
			t.Errorf("%s: Probabilities differ", p.name)
		}
		for q := 0; q < p.double.N; q++ {
			if !same(p.single.MarginalProbability(q), p.double.MarginalProbability(q)) {
				t.Errorf("%s: MarginalProbability(%d) %v, double %v", p.name, q, p.single.MarginalProbability(q), p.double.MarginalProbability(q))
			}
		}
		for seed := int64(1); seed <= 5; seed++ {
			got := p.single.Sample(rand.New(rand.NewSource(seed)), 500)
			if want := p.double.Sample(rand.New(rand.NewSource(seed)), 500); !slices.Equal(got, want) {
				t.Errorf("%s seed %d: the shots differ", p.name, seed)
			}
		}
	}
}
