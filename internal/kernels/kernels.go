// Package kernels implements the k-qubit gate kernels of Sec. 3.1–3.2 of
// Häner & Steiger, SC'17, at the paper's successive optimization levels, and
// the runtime autotuner that stands in for the paper's automatic
// code-generation + benchmarking feedback loop.
//
// The original kernels are C++ generated by a Python code generator, using
// AVX/AVX-512 intrinsics, instruction reordering and register blocking.
// Each optimization step is a distinct kernel variant here; the first five
// are pure Go, the last is the explicitly vectorized one, Go assembly
// written by cmd/kernelgen:
//
//	Naive       — the "standard implementation" with two state vectors
//	              (input + output), Sec. 3.1.
//	InPlace     — step 1: in-place sparse matrix–vector product (gather →
//	              multiply → scatter), halving memory traffic.
//	Split       — steps 2–3: the complex arithmetic is rewritten over split
//	              real/imaginary operands with the (mR,mR)/(−mI,mI)
//	              pre-computation of Eq. (2)–(3), plus column blocking for
//	              registers.
//	Specialized — the "generated" kernels: fully unrolled k = 1…2 and
//	              fixed-size-array k = 3…5 kernels (falls back to Split for
//	              larger k).
//	Generated   — cmd/kernelgen's pure-Go output: k = 2…5 fully unrolled
//	              over split operands.
//	SIMD        — cmd/kernelgen's AVX2+FMA assembly (simd_amd64.s): k = 1…5
//	              in both precisions at every bit position, SIMD lanes across
//	              base indices, the (mR,mR)/(−mI,mI) update as two FMAs per
//	              matrix entry (simd.go).
//
// Auto, what every back end runs, is the SIMD variant where the CPU has
// AVX2 and FMA and the OS saves the YMM state, and the pure-Go kernels
// otherwise: on other architectures, older CPUs, and under the conventional
// purego build tag. ISA reports which.
//
// All kernels take the gate matrix already permuted to sorted qubit order
// (the pre-permutation of Sec. 3.2) and a sorted list of qubit bit
// positions. All variants are parallelized over the collapsed outer loop via
// package par.
package kernels

import (
	"fmt"
	"sort"

	"qusim/internal/par"
)

// Variant selects a kernel implementation level.
type Variant int

const (
	// Auto, the zero value, uses the autotuner's selection for the given k
	// (until Tune has run: SIMD where this machine has it, else Specialized).
	Auto Variant = iota
	// Naive is the two-state-vector reference implementation (Sec. 3.1).
	Naive
	// InPlace is optimization step 1: in-place application.
	InPlace
	// Split is optimization steps 2–3: split real/imag FMA-style update
	// with register blocking.
	Split
	// Specialized uses the hand-unrolled per-k kernels and falls back to
	// Split for k > 5.
	Specialized
	// Generated uses the kernels emitted by cmd/kernelgen — the output of
	// the paper's automatic code generator, fully unrolled over split
	// real/imaginary operands — falling back to Specialized outside k=2…5.
	Generated
	// SIMD uses the AVX2+FMA assembly kernels emitted by cmd/kernelgen for
	// k = 1…5, and Specialized for other k or where ISA() is "go".
	SIMD
)

func (v Variant) String() string {
	switch v {
	case Naive:
		return "naive"
	case InPlace:
		return "inplace"
	case Split:
		return "split"
	case Specialized:
		return "specialized"
	case Generated:
		return "generated"
	case SIMD:
		return "simd"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists the concrete (non-Auto) variants in optimization order:
// the pure-Go ones everywhere, SIMD where this machine runs it.
func Variants() []Variant {
	vs := []Variant{Naive, InPlace, Split, Specialized, Generated}
	if hasSIMD {
		vs = append(vs, SIMD)
	}
	return vs
}

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
// sorted bit positions qs of the state amps, using the selected variant.
//
// The Naive variant needs a second vector: pass scratch with len(scratch) ==
// len(amps) (or nil to allocate one). Apply returns the slice holding the
// result — for Naive this is the scratch buffer (the two vectors swap
// roles); for all in-place variants it is amps itself.
func Apply(v Variant, amps []complex128, m []complex128, qs []int, scratch []complex128) []complex128 {
	checkArgs(len(amps), m, qs)
	if v == Auto {
		v = SelectedFor(len(qs), StrideClassOf(qs), false)
	}
	switch v {
	case Naive:
		if scratch == nil {
			scratch = make([]complex128, len(amps))
		}
		if len(scratch) != len(amps) {
			panic("kernels: scratch length mismatch")
		}
		applyNaive(scratch, amps, m, qs)
		return scratch
	case InPlace:
		applyInPlace(amps, m, qs)
	case Split:
		applySplit(amps, m, qs)
	case Specialized:
		applySpecialized(amps, m, qs)
	case Generated:
		applyGenerated(amps, m, qs)
	case SIMD:
		applySIMD(amps, m, qs)
	default:
		panic(fmt.Sprintf("kernels: unknown variant %d", int(v)))
	}
	return amps
}

// applyNaive computes dst = (1⊗…⊗U⊗…⊗1)·src with two full vectors, the
// baseline of Sec. 3.1.
//
//qusim:hot
func applyNaive(dst, src, m []complex128, qs []int) {
	k := len(qs)
	dk := 1 << k
	masks := insertMasks(qs)
	offs := offsets(qs)
	outer := len(src) >> k
	par.For(outer, grain(k), func(lo, hi int) {
		for t := lo; t < hi; t++ {
			base := expand(t, masks)
			for r := 0; r < dk; r++ {
				row := m[r*dk : (r+1)*dk]
				var acc complex128
				for c := 0; c < dk; c++ {
					acc += row[c] * src[base+offs[c]]
				}
				dst[base+offs[r]] = acc
			}
		}
	})
}

// applyInPlace is optimization step 1: gather the 2^k amplitudes into a
// temporary, multiply, scatter back (Sec. 3.2).
//
//qusim:hot
func applyInPlace(amps, m []complex128, qs []int) {
	k := len(qs)
	dk := 1 << k
	masks := insertMasks(qs)
	offs := offsets(qs)
	outer := len(amps) >> k
	par.For(outer, grain(k), func(lo, hi int) {
		tmp := make([]complex128, dk)
		for t := lo; t < hi; t++ {
			base := expand(t, masks)
			for x := 0; x < dk; x++ {
				tmp[x] = amps[base+offs[x]]
			}
			for r := 0; r < dk; r++ {
				row := m[r*dk : (r+1)*dk]
				var acc complex128
				for c := 0; c < dk; c++ {
					acc += row[c] * tmp[c]
				}
				amps[base+offs[r]] = acc
			}
		}
	})
}
