// Package kernels implements the k-qubit gate kernels of Sec. 3.1–3.2 of
// Häner & Steiger, SC'17, and the kernels around them: diagonal sweeps, bit
// permutations, controlled gates and the norm/entropy reductions.
//
// The paper's kernels are C++ written by a Python code generator with
// AVX/AVX-512 intrinsics, benchmarked per machine, and the winner kept. The
// winner here is known, so there is one dense kernel per instruction set,
// gate size and precision, and which one runs is a function of what the
// code can observe — the CPU, k, the element type — and nothing else:
//
//   - where the CPU has AVX-512 (F, DQ, BW, VL) and the OS saves the ZMM
//     state, the assembly cmd/kernelgen writes to simd512_amd64.s; where it
//     has AVX2, FMA and BMI2 and the OS saves the YMM state (or the build
//     carries the noavx512 tag), the same kernels at half the width in
//     simd_amd64.s: k = 1…5 in both precisions at every bit position, SIMD
//     lanes across base indices, the (mR,mR)/(−mI,mI) update of Eq. (2)–(3)
//     as two FMAs per matrix entry, the same sequence per lane at both
//     widths and so the same bits (simd.go);
//   - elsewhere — another architecture, an older CPU, the conventional
//     purego build tag — the pure-Go kernels cmd/kernelgen writes from the
//     same description, one straight-line body per k = 1…5 for both
//     precisions (gokernels.go): per amplitude the assembly's FMAs in the
//     assembly's order, each an explicit math.FMA, so in double precision
//     every set computes the same bits on every host; a complex64 state is
//     computed in float64 and rounded once at the store;
//   - beyond k = 5 on any, the general-k kernel, the same arithmetic as a
//     loop (general.go).
//
// ISA reports which set this machine runs. PrepareDense picks the kernel and
// does the per-gate work once; Apply is prepare plus one sweep. The earlier
// rungs of the paper's optimization ladder, the two-vector and the in-place
// kernel, are kept for Fig. 2 and as the test oracle in
// internal/harness/refkernel. Tune times the kernels of this machine for the
// scheduler's cost table; it selects nothing.
//
// All kernels take the gate matrix already permuted to sorted qubit order
// (the pre-permutation of Sec. 3.2) and a sorted list of qubit bit
// positions, and are parallelized over the collapsed outer loop via package
// par.
package kernels

import (
	"fmt"
	"sort"
)

// grain returns the minimum outer-loop chunk per worker so that each chunk
// touches at least ~4096 amplitudes, keeping goroutine overhead negligible.
func grain(k int) int {
	g := 4096 >> uint(k)
	if g < 1 {
		g = 1
	}
	return g
}

// checkArgs validates kernel arguments, in either precision.
func checkArgs[T complexAmp](n int, m []T, qs []int) {
	k := len(qs)
	if len(m) != (1<<k)*(1<<k) {
		panic(fmt.Sprintf("kernels: matrix has %d entries, want %d for k=%d", len(m), (1<<k)*(1<<k), k))
	}
	if !sort.IntsAreSorted(qs) {
		panic("kernels: qubit positions must be sorted ascending")
	}
	for i, q := range qs {
		if q < 0 || 1<<q >= n {
			panic(fmt.Sprintf("kernels: qubit position %d out of range for %d amplitudes", q, n))
		}
		if i > 0 && qs[i-1] == q {
			panic(fmt.Sprintf("kernels: duplicate qubit position %d", q))
		}
	}
}

// insertMasks precomputes the zero-insertion masks that expand a collapsed
// outer-loop index t into a base state index with zeros at positions qs.
func insertMasks(qs []int) []int {
	masks := make([]int, len(qs))
	for j, q := range qs {
		masks[j] = (1 << q) - 1
	}
	return masks
}

// expand inserts zero bits at the masked positions (ascending order).
func expand(t int, masks []int) int {
	for _, m := range masks {
		t = ((t &^ m) << 1) | (t & m)
	}
	return t
}

// offsets precomputes, for every gate-local index x in [0, 2^k), the state
// index offset Σ_j bit_j(x)·2^qs[j].
func offsets(qs []int) []int {
	k := len(qs)
	offs := make([]int, 1<<k)
	for x := range offs {
		o := 0
		for j := 0; j < k; j++ {
			if x&(1<<j) != 0 {
				o |= 1 << qs[j]
			}
		}
		offs[x] = o
	}
	return offs
}

// Apply applies the 2^k × 2^k matrix m (sorted qubit order) to the qubits at
// sorted bit positions qs of the state amps, in place.
func Apply[T complexAmp](amps, m []T, qs []int) {
	d := PrepareDense(m, qs, len(amps))
	d.Sweep(amps)
}

// ToComplex64 converts a complex128 gate matrix (or diagonal) to the
// complex64 form a single-precision state takes: halving the bytes per
// amplitude halves the memory traffic that dominates k = 1–2 gates and
// doubles the qubits that fit in the same memory (the Sec. 5 outlook).
func ToComplex64(m []complex128) []complex64 {
	out := make([]complex64, len(m))
	for i, v := range m {
		out[i] = complex64(v)
	}
	return out
}

// Convert returns a complex128 gate matrix (or diagonal) in the element type
// T: m itself for complex128, its ToComplex64 copy for complex64.
func Convert[T complexAmp](m []complex128) []T {
	if same, ok := any(m).([]T); ok {
		return same
	}
	return any(ToComplex64(m)).([]T)
}
