package f32vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/gate"
	"qusim/internal/statevec"
)

func newTestRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestApplyMatchesDoublePrecision(t *testing.T) {
	n := 10
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 12, Seed: 3})
	d := statevec.New(n)
	s := New(n)
	for i := range circ.Gates {
		g := &circ.Gates[i]
		qs := append([]int(nil), g.Qubits...)
		m := g.Matrix()
		if !sort.IntsAreSorted(qs) {
			// Normalize to sorted order for the f32 kernel.
			perm := sortPerm(qs)
			m = gate.PermuteQubits(m, perm)
			sort.Ints(qs)
		}
		d.ApplyDense(m, qs...)
		s.Apply(m, qs)
	}
	if diff := s.MaxDiff(d); diff > 1e-4 {
		t.Errorf("single vs double precision max diff %g", diff)
	}
	if math.Abs(s.Norm()-1) > 1e-4 {
		t.Errorf("single-precision norm %v", s.Norm())
	}
	if math.Abs(s.Entropy()-d.Entropy()) > 1e-3 {
		t.Errorf("entropy %v vs %v", s.Entropy(), d.Entropy())
	}
}

func sortPerm(qs []int) []int {
	k := len(qs)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return qs[idx[a]] < qs[idx[b]] })
	perm := make([]int, k)
	for rank, j := range idx {
		perm[j] = rank
	}
	return perm
}

func TestRoundTripConversion(t *testing.T) {
	d := statevec.NewUniform(8)
	back := NewUniform(8).ToDouble()
	if diff := d.MaxDiff(back); diff > 1e-7 {
		t.Errorf("round trip max diff %g", diff)
	}
}

func TestUniformInit(t *testing.T) {
	v := NewUniform(10)
	if math.Abs(v.Norm()-1) > 1e-5 {
		t.Errorf("uniform norm %v", v.Norm())
	}
	if math.Abs(v.Entropy()-10*math.Ln2) > 1e-3 {
		t.Errorf("uniform entropy %v", v.Entropy())
	}
}

func TestApplyValidation(t *testing.T) {
	v := New(4)
	h := gate.H()
	for i, fn := range []func(){
		func() { v.Apply(h, []int{0, 1}) },         // arity mismatch
		func() { v.Apply(gate.CZ(), []int{1, 0}) }, // unsorted
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestVariantsMatchDoublePrecisionDeepCircuit runs a deep random circuit
// gate by gate through the single-precision variant of the state and checks
// the drift against the double-precision one stays within the documented
// tolerance.
func TestVariantsMatchDoublePrecisionDeepCircuit(t *testing.T) {
	n := 9
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 24, Seed: 11})
	d, s := statevec.New(n), New(n)
	for i := range circ.Gates {
		g := &circ.Gates[i]
		d.Apply(g.Matrix(), g.Qubits...)
		s.State.Apply(g.Matrix(), g.Qubits...)
	}
	if diff := s.MaxDiff(d); diff > 1e-4 {
		t.Errorf("max diff %g vs double precision", diff)
	}
}

func TestApplyGateUnsortedAndDiagonal(t *testing.T) {
	n := 8
	d := statevec.New(n)
	s := New(n)
	// Unsorted 2-qubit gate, diagonal gate, and 1-qubit gate.
	g1 := gate.RandomUnitary(2, newTestRng(7))
	d.Apply(g1, 5, 2)
	s.State.Apply(g1, 5, 2)
	cz := gate.CZ()
	d.Apply(cz, 6, 1)
	s.State.Apply(cz, 6, 1)
	h := gate.H()
	d.Apply(h, 3)
	s.State.Apply(h, 3)
	if diff := s.MaxDiff(d); diff > 1e-5 {
		t.Errorf("ApplyGate max diff %g", diff)
	}
}
