// Package statevec implements the single-node state vector of a quantum
// circuit simulator (Sec. 2–3.3 of Häner & Steiger, SC'17): a dense vector
// of 2^n complex amplitudes with in-place k-qubit gate application, diagonal
// and specialized fast paths, local qubit permutation kernels (used by the
// distributed global-to-local swaps), and measurement/statistics routines.
package statevec

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/par"
)

// Vector is the state of an n-qubit register: Amps[b] is the amplitude of
// computational basis state |b⟩, with qubit j at bit j of b.
type Vector struct {
	N    int
	Amps []complex128
}

// New returns an n-qubit register initialized to |0…0⟩.
func New(n int) *Vector {
	v := newUninit(n)
	v.Amps[0] = 1
	return v
}

// NewUniform returns the uniform superposition (2^{−n/2}, …)ᵀ — the state
// after the initial cycle of Hadamards, which the simulator writes directly
// instead of applying n H gates (Sec. 3.6).
func NewUniform(n int) *Vector {
	v := newUninit(n)
	a := complex(math.Pow(2, -float64(n)/2), 0)
	par.For(len(v.Amps), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v.Amps[i] = a
		}
	})
	return v
}

// FromAmplitudes wraps an amplitude slice (len must be a power of two).
// The slice is not copied.
func FromAmplitudes(amps []complex128) *Vector {
	n := bits.Len(uint(len(amps))) - 1
	if len(amps) == 0 || 1<<n != len(amps) {
		panic(fmt.Sprintf("statevec: %d amplitudes is not a power of two", len(amps)))
	}
	return &Vector{N: n, Amps: amps}
}

func newUninit(n int) *Vector {
	if n < 0 || n > 34 {
		panic(fmt.Sprintf("statevec: unsupported qubit count %d", n))
	}
	return &Vector{N: n, Amps: kernels.NewAmps[complex128](1 << n)}
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := &Vector{N: v.N, Amps: kernels.NewAmps[complex128](len(v.Amps))}
	par.For(len(v.Amps), 1<<16, func(lo, hi int) { copy(c.Amps[lo:hi], v.Amps[lo:hi]) })
	return c
}

// Len returns the number of amplitudes, 2^N.
func (v *Vector) Len() int { return len(v.Amps) }

// Amplitude returns the amplitude of basis state |b⟩.
func (v *Vector) Amplitude(b int) complex128 { return v.Amps[b] }

// Norm returns the 2-norm squared Σ|α|², which unitary evolution keeps at 1.
func (v *Vector) Norm() float64 { return kernels.Norm(v.Amps) }

// Renormalize rescales the state to unit norm (guards against drift in very
// deep circuits).
func (v *Vector) Renormalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	kernels.Scale(v.Amps, complex(1/math.Sqrt(n), 0))
}

// Probability returns |α_b|².
func (v *Vector) Probability(b int) float64 {
	a := v.Amps[b]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full output distribution. Only sensible for
// small n.
func (v *Vector) Probabilities() []float64 {
	p := make([]float64, len(v.Amps))
	par.For(len(v.Amps), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := v.Amps[i]
			p[i] = real(a)*real(a) + imag(a)*imag(a)
		}
	})
	return p
}

// Entropy returns the Shannon entropy −Σ p ln p of the output distribution
// in nats — the quantity computed in the 36-qubit Edison run (Sec. 4.2.2),
// which requires a final reduction over all amplitudes.
func (v *Vector) Entropy() float64 { return kernels.Entropy(v.Amps) }

// NormEntropy returns Norm and Entropy from one pass over the state.
func (v *Vector) NormEntropy() (norm, entropy float64) { return kernels.NormEntropy(v.Amps) }

// MarginalProbability returns P(qubit q = 1).
func (v *Vector) MarginalProbability(q int) float64 {
	bit := 1 << q
	return par.ReduceFloat64(len(v.Amps), 1<<14, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			if i&bit != 0 {
				a := v.Amps[i]
				s += real(a)*real(a) + imag(a)*imag(a)
			}
		}
		return s
	})
}

// MaxDiff returns the largest modulus of element-wise difference to o.
func (v *Vector) MaxDiff(o *Vector) float64 {
	if v.N != o.N {
		return math.Inf(1)
	}
	return kernels.MaxDiff(v.Amps, o.Amps)
}

// InnerProduct returns ⟨v|o⟩.
func (v *Vector) InnerProduct(o *Vector) complex128 {
	var acc complex128
	for i := range v.Amps {
		a := v.Amps[i]
		acc += complex(real(a), -imag(a)) * o.Amps[i]
	}
	return acc
}

// Fidelity returns |⟨v|o⟩|².
func (v *Vector) Fidelity(o *Vector) float64 {
	ip := v.InnerProduct(o)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// gate application -----------------------------------------------------------

// Apply applies the gate matrix m to the given qubits: gate-local qubit j of
// m acts on qubits[j] (ApplyGate).
func (v *Vector) Apply(m gate.Matrix, qubits ...int) { ApplyGate(v.Amps, m, qubits) }

// ApplyGate is the per-gate entry of a state in either precision (Vector.Apply,
// f32vec's ApplyGate). Qubits need not be sorted: the matrix is pre-permuted to
// sorted qubit order per Sec. 3.2, converted to the element type, and a
// diagonal matrix takes the no-matvec fast path.
func ApplyGate[T complex64 | complex128](amps []T, m gate.Matrix, qubits []int) {
	if len(qubits) != m.K {
		panic(fmt.Sprintf("statevec: %d qubits for a %d-qubit gate", len(qubits), m.K))
	}
	sortedQs, perm := SortPositions(qubits)
	if perm != nil {
		m = gate.PermuteQubits(m, perm)
	}
	if m.IsDiagonal(0) {
		kernels.ApplyDiagonal(amps, kernels.Convert[T](m.Diagonal()), sortedQs)
		return
	}
	kernels.Apply(amps, kernels.Convert[T](m.Data), sortedQs)
}

// ApplyDense is Apply without the diagonal fast path — used by experiments
// that must exercise the full kernel (worst-case dense gates, Sec. 3.6.1).
func (v *Vector) ApplyDense(m gate.Matrix, qubits ...int) {
	sortedQs, perm := SortPositions(qubits)
	mm := m
	if perm != nil {
		mm = gate.PermuteQubits(m, perm)
	}
	kernels.Apply(v.Amps, mm.Data, sortedQs)
}

// ApplyDiagonal applies a diagonal gate given by its diagonal entries.
func (v *Vector) ApplyDiagonal(d []complex128, qubits ...int) {
	sortedQs, perm := SortPositions(qubits)
	dd := d
	if perm != nil {
		dd = make([]complex128, len(d))
		k := len(qubits)
		for x := range d {
			// bit j of x moves to bit perm[j].
			y := 0
			for j := 0; j < k; j++ {
				if x&(1<<j) != 0 {
					y |= 1 << perm[j]
				}
			}
			dd[y] = d[x]
		}
	}
	kernels.ApplyDiagonal(v.Amps, dd, sortedQs)
}

// ApplyCZ applies a controlled-Z between two qubits (symmetric): the
// diagonal sweep Apply(gate.CZ()) takes.
func (v *Vector) ApplyCZ(a, b int) { v.ApplyDiagonal([]complex128{1, 1, 1, -1}, a, b) }

// Scale multiplies the whole state by s (global phase).
func (v *Vector) Scale(s complex128) { kernels.Scale(v.Amps, s) }

// SortPositions returns the sorted positions and, if the input was not
// already sorted, the permutation perm with perm[j] = rank of qubits[j].
func SortPositions(qubits []int) ([]int, []int) {
	if sort.IntsAreSorted(qubits) {
		return qubits, nil
	}
	k := len(qubits)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return qubits[idx[a]] < qubits[idx[b]] })
	sortedQs := make([]int, k)
	perm := make([]int, k)
	for rank, j := range idx {
		sortedQs[rank] = qubits[j]
		perm[j] = rank
	}
	return sortedQs, perm
}
