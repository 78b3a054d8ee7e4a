package statevec

import (
	"math"
	"math/rand"
	"testing"

	"qusim/internal/gate"
	"qusim/internal/harness/refkernel"
	"qusim/internal/kernels"
)

// sortedGate returns u and qs as the kernels take them: positions ascending,
// the matrix permuted to match.
func sortedGate(u gate.Matrix, qs []int) ([]complex128, []int) {
	sorted, u := gate.Sort(u, qs)
	return u.Data, sorted
}

func TestNaiveVariantLongCircuit(t *testing.T) {
	// The naive reference kernel ping-pongs two buffers; after many
	// applications it must still agree with the vector's in-place kernels.
	rng := rand.New(rand.NewSource(130))
	n := 8
	b := randomVector(n, rng)
	src, dst := append([]complex128(nil), b.Amps...), make([]complex128, b.Len())
	for i := 0; i < 40; i++ {
		k := 1 + rng.Intn(3)
		u := gate.RandomUnitary(k, rng)
		qs := rng.Perm(n)[:k]
		m, sorted := sortedGate(u, qs)
		refkernel.Naive(dst, src, m, sorted)
		src, dst = dst, src
		b.Apply(u, qs...)
	}
	if d := FromAmplitudes(src).MaxDiff(b); d > 1e-8 {
		t.Errorf("naive vs %s kernels over 40 gates: max diff %g", kernels.ISA(), d)
	}
}

func TestAllVariantsAgreeOnCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	n := 8
	base := randomVector(n, rng)
	naive, inPlace, apply, dense := base.Clone(), base.Clone(), base.Clone(), base.Clone()
	scratch := make([]complex128, base.Len())
	for i := 0; i < 25; i++ {
		k := 1 + rng.Intn(3)
		u, qs := gate.RandomUnitary(k, rng), rng.Perm(n)[:k]
		m, sorted := sortedGate(u, qs)
		refkernel.Naive(scratch, naive.Amps, m, sorted)
		naive.Amps, scratch = scratch, naive.Amps
		refkernel.InPlace(inPlace.Amps, m, sorted)
		apply.Apply(u, qs...)
		dense.ApplyDense(u, qs...)
	}
	for name, v := range map[string]*Vector{"in-place reference": inPlace, "Apply": apply, "ApplyDense": dense} {
		if d := naive.MaxDiff(v); d > 1e-8 {
			t.Errorf("%s deviates from the naive reference: %g", name, d)
		}
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	v := randomVector(9, rng)
	var sum float64
	for _, p := range v.Probabilities() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := New(4)
	w := v.Clone()
	w.Apply(gate.X(), 0)
	if v.Probability(1) != 0 {
		t.Error("modifying the clone affected the original")
	}
}

func TestFromAmplitudesAliases(t *testing.T) {
	amps := make([]complex128, 8)
	amps[0] = 1
	v := FromAmplitudes(amps)
	v.Apply(gate.X(), 0)
	if amps[1] != 1 {
		t.Error("FromAmplitudes should alias the caller's slice")
	}
}

func TestApplyZeroQubitGate(t *testing.T) {
	// A 0-qubit "gate" is a global scalar; Apply must handle it via the
	// diagonal path.
	rng := rand.New(rand.NewSource(133))
	v := randomVector(5, rng)
	w := v.Clone()
	phase := gate.Identity(0)
	phase.Data[0] = 1i
	v.Apply(phase)
	for i := range w.Amps {
		w.Amps[i] *= 1i
	}
	if d := v.MaxDiff(w); d > 1e-14 {
		t.Errorf("0-qubit gate application: %g", d)
	}
}

func TestApplyPanicsOnArityMismatch(t *testing.T) {
	v := New(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	v.Apply(gate.H(), 0, 1)
}

func TestDeepCircuitNormStability(t *testing.T) {
	// 500 random gates: the norm must stay at 1 to ~1e-12 (numerical
	// stability of the kernels).
	rng := rand.New(rand.NewSource(134))
	v := New(8)
	for i := 0; i < 500; i++ {
		k := 1 + rng.Intn(2)
		v.Apply(gate.RandomUnitary(k, rng), rng.Perm(8)[:k]...)
	}
	if d := math.Abs(v.Norm() - 1); d > 1e-11 {
		t.Errorf("norm drift after 500 gates: %g", d)
	}
}
