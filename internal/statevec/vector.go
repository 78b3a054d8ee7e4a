// Package statevec implements the single-node state vector of a quantum
// circuit simulator (Sec. 2–3.3 of Häner & Steiger, SC'17): a dense vector
// of 2^n complex amplitudes, in double or single precision (Sec. 5), with
// in-place k-qubit gate application, diagonal and specialized fast paths,
// local qubit permutation kernels (used by the distributed global-to-local
// swaps), and measurement/statistics routines.
package statevec

import (
	"fmt"
	"math"
	"math/bits"

	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/par"
)

// Amp is the element type of a state: complex128, or complex64 for the
// single-precision state of the Sec. 5 outlook (half the bytes per amplitude,
// one more qubit in the same memory).
type Amp interface{ complex64 | complex128 }

// State is the state of an n-qubit register with amplitudes of type T:
// Amps[b] is the amplitude of computational basis state |b⟩, with qubit j at
// bit j of b. Probabilities and reductions are taken in float64 at either
// precision: a method that squares an amplitude widens it with complex128(a)
// first, which is the amplitude itself at complex128.
type State[T Amp] struct {
	N    int
	Amps []T
}

// Vector is the double-precision state.
type Vector = State[complex128]

// MaxUnitQubits bounds what one store allocates in memory, in either
// precision: a whole state (Prepare), a rank's shard or a paged chunk holds
// at most 2^MaxUnitQubits amplitudes — 256 GiB in double precision.
const MaxUnitQubits = 34

// Start is the state a run starts in, before its first gate. Every store —
// this package's states, dist's ranks, oocvec's file — writes it from
// Amplitudes.
type Start int

const (
	// StartZero is |0…0⟩.
	StartZero Start = iota
	// StartUniform is the uniform superposition (2^{−n/2}, …)ᵀ — the state
	// after the initial cycle of Hadamards, which the simulator writes
	// directly instead of applying n H gates (Sec. 3.6).
	StartUniform
)

// Amplitudes returns the amplitude of the n-qubit start state s at basis
// state |0…0⟩ and at every other basis state.
func (s Start) Amplitudes(n int) (first, rest complex128) {
	if s == StartUniform {
		a := complex(math.Pow(2, -float64(n)/2), 0)
		return a, a
	}
	return 1, 0
}

// New returns an n-qubit register initialized to |0…0⟩.
func New(n int) *Vector { return Prepare[complex128](StartZero, n) }

// NewUniform returns the uniform superposition in double precision.
func NewUniform(n int) *Vector { return Prepare[complex128](StartUniform, n) }

// Prepare returns an n-qubit register in the start state s.
func Prepare[T Amp](s Start, n int) *State[T] {
	if n < 0 || n > MaxUnitQubits {
		panic(fmt.Sprintf("statevec: unsupported qubit count %d", n))
	}
	v := &State[T]{N: n, Amps: kernels.NewAmps[T](1 << n)}
	Fill(s, n, v.Amps, 0)
	return v
}

// Fill writes unit u of the n-qubit start state s — its amplitudes from
// basis state u·len(amps) on — into amps, which hold zeros, as
// kernels.NewAmps returns them. Like every pass over a state it runs under
// par; a zero amplitude is not written.
func Fill[T Amp](s Start, n int, amps []T, u int) {
	first, rest := s.Amplitudes(n)
	if a := T(rest); a != 0 {
		par.For(len(amps), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				amps[i] = a
			}
		})
	}
	if u == 0 {
		amps[0] = T(first)
	}
}

// FromAmplitudes wraps an amplitude slice (len must be a power of two).
// The slice is not copied.
//
//qlint:ignore deadcode tests in three packages wrap reference amplitudes with it
func FromAmplitudes[T Amp](amps []T) *State[T] {
	n := bits.Len(uint(len(amps))) - 1
	if len(amps) == 0 || 1<<n != len(amps) {
		panic(fmt.Sprintf("statevec: %d amplitudes is not a power of two", len(amps)))
	}
	return &State[T]{N: n, Amps: amps}
}

// Clone returns a deep copy.
func (v *State[T]) Clone() *State[T] {
	c := &State[T]{N: v.N, Amps: kernels.NewAmps[T](len(v.Amps))}
	par.For(len(v.Amps), 1<<16, func(lo, hi int) { copy(c.Amps[lo:hi], v.Amps[lo:hi]) })
	return c
}

// Len returns the number of amplitudes, 2^N.
func (v *State[T]) Len() int { return len(v.Amps) }

// Amplitude returns the amplitude of basis state |b⟩.
func (v *State[T]) Amplitude(b int) T { return v.Amps[b] }

// Norm returns the 2-norm squared Σ|α|², which unitary evolution keeps at 1.
func (v *State[T]) Norm() float64 { return kernels.Norm(v.Amps) }

// Renormalize rescales the state to unit norm (guards against drift in very
// deep circuits).
func (v *State[T]) Renormalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	kernels.Scale(v.Amps, T(complex(1/math.Sqrt(n), 0)))
}

// Probability returns |α_b|².
func (v *State[T]) Probability(b int) float64 {
	a := complex128(v.Amps[b])
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full output distribution. Only sensible for
// small n.
func (v *State[T]) Probabilities() []float64 {
	p := make([]float64, len(v.Amps))
	par.For(len(v.Amps), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a := complex128(v.Amps[i])
			p[i] = real(a)*real(a) + imag(a)*imag(a)
		}
	})
	return p
}

// Entropy returns the Shannon entropy −Σ p ln p of the output distribution
// in nats — the quantity computed in the 36-qubit Edison run (Sec. 4.2.2),
// which requires a final reduction over all amplitudes.
func (v *State[T]) Entropy() float64 { return kernels.Entropy(v.Amps) }

// MaxDiff returns the largest modulus of element-wise difference to the
// double-precision state o: at single precision, the rounding error the
// narrower amplitudes have gathered.
func (v *State[T]) MaxDiff(o *Vector) float64 {
	if v.N != o.N {
		return math.Inf(1)
	}
	return kernels.MaxDiff(v.Amps, o.Amps)
}

// InnerProduct returns ⟨v|o⟩.
func (v *State[T]) InnerProduct(o *State[T]) complex128 {
	var acc complex128
	for i := range v.Amps {
		a := complex128(v.Amps[i])
		acc += complex(real(a), -imag(a)) * complex128(o.Amps[i])
	}
	return acc
}

// Fidelity returns |⟨v|o⟩|².
func (v *State[T]) Fidelity(o *State[T]) float64 {
	ip := v.InnerProduct(o)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// gate application -----------------------------------------------------------

// Apply applies the gate matrix m to the given qubits: gate-local qubit j of
// m acts on qubits[j]. Qubits need not be sorted: the matrix is pre-permuted
// to sorted qubit order per Sec. 3.2, converted to the element type, and a
// diagonal matrix takes the no-matvec fast path.
func (v *State[T]) Apply(m gate.Matrix, qubits ...int) {
	if len(qubits) != m.K {
		panic(fmt.Sprintf("statevec: %d qubits for a %d-qubit gate", len(qubits), m.K))
	}
	if m.IsDiagonal(0) {
		v.ApplyDiagonal(m.Diagonal(), qubits...)
		return
	}
	v.ApplyDense(m, qubits...)
}

// ApplyDense is Apply without the diagonal fast path — used by experiments
// that must exercise the full kernel (worst-case dense gates, Sec. 3.6.1).
func (v *State[T]) ApplyDense(m gate.Matrix, qubits ...int) {
	sortedQs, m := gate.Sort(m, qubits)
	kernels.Apply(v.Amps, kernels.Convert[T](m.Data), sortedQs)
}

// ApplyDiagonal applies a diagonal gate given by its diagonal entries.
func (v *State[T]) ApplyDiagonal(d []complex128, qubits ...int) {
	sortedQs, d := gate.SortDiagonal(d, qubits)
	kernels.ApplyDiagonal(v.Amps, kernels.Convert[T](d), sortedQs)
}
