// Package f32vec implements a single-precision (complex64) state vector —
// the Sec. 5 outlook of Häner & Steiger, SC'17: "the simulation of 46
// qubits is feasible when using single-precision floating point numbers to
// represent the complex amplitudes", because halving the bytes per
// amplitude doubles the number of qubits that fit in the same memory.
//
// The state is statevec's, at complex64: the same constructors, reductions,
// sampling and per-gate entry, through the same generated kernels —
// AVX-512 or AVX2+FMA assembly, or pure Go elsewhere — as the
// double-precision path at the other element width. This package keeps the
// names the benchmark and the tools call it by.
package f32vec

import (
	"fmt"

	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/par"
	"qusim/internal/statevec"
)

// Vector is an n-qubit state with complex64 amplitudes: statevec's state at
// single precision, so it samples and reduces like the
// double-precision one. It adds the sorted-position Apply, RunPlan and
// ToDouble.
type Vector struct{ statevec.State[complex64] }

// New returns |0…0⟩.
func New(n int) *Vector { return Prepare(statevec.StartZero, n) }

// Prepare returns an n-qubit register in the start state s.
func Prepare(s statevec.Start, n int) *Vector { return &Vector{*statevec.Prepare[complex64](s, n)} }

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
