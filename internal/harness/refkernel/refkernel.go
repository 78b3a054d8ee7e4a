// Package refkernel holds the two k-qubit gate kernels the paper starts
// from (Sec. 3.1–3.2), in double precision: the "standard implementation"
// with an input and an output state vector, and optimization step 1, the
// in-place gather → multiply → scatter. Nothing executes a circuit with
// them; they are what Fig. 2's first two columns measure, the oracle
// cmd/qverify and the kernel tests compare every other kernel against, and
// deliberately the plainest code that computes (1⊗…⊗U⊗…⊗1)|Ψ⟩. The package
// imports par only, so any test can reach it.
//
// Both take the 2^k × 2^k matrix m row-major in sorted qubit order and the
// strictly ascending bit positions qs, and trust the caller with both.
package refkernel

import "qusim/internal/par"

// Naive computes dst = (1⊗…⊗U⊗…⊗1)·src with two full vectors, the baseline
// of Sec. 3.1. Callers applying several gates let the two vectors trade
// places.
func Naive(dst, src, m []complex128, qs []int) {
	k := len(qs)
	dk := 1 << k
	offs := offsets(qs)
	par.For(len(src)>>k, grain(k), func(lo, hi int) {
		for t := lo; t < hi; t++ {
			base := expand(t, qs)
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

// InPlace is optimization step 1: gather the 2^k amplitudes into a
// temporary, multiply, scatter back, halving the memory traffic (Sec. 3.2).
func InPlace(amps, m []complex128, qs []int) {
	k := len(qs)
	dk := 1 << k
	offs := offsets(qs)
	par.For(len(amps)>>k, grain(k), func(lo, hi int) {
		tmp := make([]complex128, dk)
		for t := lo; t < hi; t++ {
			base := expand(t, qs)
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

// grain keeps about 4096 amplitudes in a par.For chunk.
func grain(k int) int { return max(1, 4096>>k) }

// expand inserts a zero bit into t at every position of qs (ascending).
func expand(t int, qs []int) int {
	for _, q := range qs {
		low := 1<<q - 1
		t = (t&^low)<<1 | t&low
	}
	return t
}

// offsets lists, for every gate-local index x, the state index offset
// Σ_j bit_j(x)·2^qs[j].
func offsets(qs []int) []int {
	offs := make([]int, 1<<len(qs))
	for x := range offs {
		for j, q := range qs {
			offs[x] |= (x >> j & 1) << q
		}
	}
	return offs
}
