// Package f32vec implements a single-precision (complex64) state vector —
// the Sec. 5 outlook of Häner & Steiger, SC'17: "the simulation of 46
// qubits is feasible when using single-precision floating point numbers to
// represent the complex amplitudes", because halving the bytes per
// amplitude doubles the number of qubits that fit in the same memory.
//
// Gate application is delegated to the complex64 kernels of package
// kernels — the same assembly or unrolled per-k kernels as the
// double-precision path, at the other element width — rather than a lone
// gather/scatter loop.
package f32vec

import (
	"fmt"
	"math"
	"math/bits"

	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/par"
	"qusim/internal/statevec"
)

// BytesPerAmplitude is 8 for complex64 (vs 16 for complex128).
const BytesPerAmplitude = 8

// MaxQubitsForMemory returns the largest n such that a 2^n-amplitude state
// fits into the given memory. With the paper's 0.5 PB, double precision
// holds 45 qubits and single precision 46 (Sec. 5). The computation is
// exact integer bit arithmetic — the old math.Pow loop accumulated rounding
// on the repeated power evaluation and walked 2^n one step at a time.
func MaxQubitsForMemory(bytes float64, single bool) int {
	per := uint64(16)
	if single {
		per = BytesPerAmplitude
	}
	// Fewer than two amplitudes (also NaN / negative input) holds no qubits.
	if !(bytes >= float64(2*per)) {
		return 0
	}
	amps := bytes / float64(per)
	if amps >= 1<<62 {
		return 62
	}
	return bits.Len64(uint64(amps)) - 1
}

// Vector is an n-qubit state with complex64 amplitudes.
type Vector struct {
	N    int
	Amps []complex64
}

// New returns |0…0⟩.
func New(n int) *Vector {
	v := &Vector{N: n, Amps: kernels.NewAmps[complex64](1 << n)}
	v.Amps[0] = 1
	return v
}

// NewUniform returns the uniform superposition.
func NewUniform(n int) *Vector {
	v := &Vector{N: n, Amps: kernels.NewAmps[complex64](1 << n)}
	a := complex64(complex(float32(math.Pow(2, -float64(n)/2)), 0))
	par.For(len(v.Amps), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v.Amps[i] = a
		}
	})
	return v
}

// FromDouble converts a double-precision state.
func FromDouble(s *statevec.Vector) *Vector {
	v := &Vector{N: s.N, Amps: kernels.NewAmps[complex64](len(s.Amps))}
	par.For(len(v.Amps), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v.Amps[i] = complex64(s.Amps[i])
		}
	})
	return v
}

// ToDouble converts back to double precision.
func (v *Vector) ToDouble() *statevec.Vector {
	out := statevec.New(v.N)
	par.For(len(v.Amps), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Amps[i] = complex128(v.Amps[i])
		}
	})
	return out
}

// Apply applies a gate matrix (given in double precision, converted once)
// to the qubits at sorted positions qs, through the single-precision
// kernels.
func (v *Vector) Apply(m gate.Matrix, qs []int) {
	k := m.K
	if len(qs) != k {
		panic(fmt.Sprintf("f32vec: %d positions for %d-qubit gate", len(qs), k))
	}
	for i := 1; i < k; i++ {
		if qs[i-1] >= qs[i] {
			panic("f32vec: positions must be sorted ascending")
		}
	}
	kernels.Apply(v.Amps, kernels.ToComplex64(m.Data), qs)
}

// ApplyGate applies m to arbitrary (possibly unsorted) qubits through the
// per-gate entry both precisions share (statevec.ApplyGate). This is the
// per-gate entry point the differential-verification backend drives.
func (v *Vector) ApplyGate(m gate.Matrix, qubits ...int) { statevec.ApplyGate(v.Amps, m, qubits) }

// Norm returns Σ|α|², accumulated in float64 to limit rounding.
func (v *Vector) Norm() float64 { return kernels.Norm(v.Amps) }

// Entropy returns the Shannon entropy of the output distribution in nats.
func (v *Vector) Entropy() float64 { return kernels.Entropy(v.Amps) }

// NormEntropy returns Norm and Entropy from one pass over the state.
func (v *Vector) NormEntropy() (norm, entropy float64) { return kernels.NormEntropy(v.Amps) }

// MaxDiff returns the largest amplitude deviation from a double-precision
// state — used to quantify single-precision error growth over deep
// circuits.
func (v *Vector) MaxDiff(s *statevec.Vector) float64 {
	return kernels.MaxDiff(v.Amps, s.Amps)
}
