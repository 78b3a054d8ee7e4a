// Package f32vec implements a single-precision (complex64) state vector —
// the Sec. 5 outlook of Häner & Steiger, SC'17: "the simulation of 46
// qubits is feasible when using single-precision floating point numbers to
// represent the complex amplitudes", because halving the bytes per
// amplitude doubles the number of qubits that fit in the same memory.
//
// The state is statevec's, at complex64: the same constructors, reductions,
// sampling and per-gate entry, through the same assembly or unrolled per-k
// kernels as the double-precision path at the other element width. This
// package keeps the names the benchmark and the tools call it by.
package f32vec

import (
	"fmt"
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

// Vector is an n-qubit state with complex64 amplitudes: statevec's state at
// single precision, so it samples, measures and reduces like the
// double-precision one. It adds the sorted-position Apply, RunPlan and
// ToDouble.
type Vector struct{ statevec.State[complex64] }

// New returns |0…0⟩.
func New(n int) *Vector { return &Vector{*statevec.Zero[complex64](n)} }

// NewUniform returns the uniform superposition.
func NewUniform(n int) *Vector { return &Vector{*statevec.Uniform[complex64](n)} }

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
