package kernels

import (
	"math"
	"sync"

	"qusim/internal/par"
)

// The result reductions every back end ends a run with (Sec. 4.2.2: the
// 36-qubit Edison run exists to compute the output entropy): Σ|α|² and the
// Shannon entropy −Σ|α|²·ln|α|² in nats, both accumulated in float64
// whatever the amplitude type. With the assembly kernels (ISA "avx2" or
// "avx512") the logarithm runs four or eight lanes at a time;
// cmd/kernelgen/reduce.go documents
// the algorithm and DESIGN.md §12.1 what it reaches. Otherwise the scalar
// loops below run, which are also the reference the tests hold the assembly
// to. A NaN or infinite amplitude makes both sums NaN or infinite; zero
// amplitudes contribute nothing.

// reduceGrain is the fewest amplitudes worth a worker of their own.
const reduceGrain = 1 << 14

// Norm returns Σ|α|².
func Norm[C complexAmp](amps []C) float64 {
	norm, _ := reduce(amps, false)
	return norm
}

// Entropy returns −Σ|α|²·ln|α|².
func Entropy[C complexAmp](amps []C) float64 {
	_, ent := reduce(amps, true)
	return ent
}

// NormEntropy returns both sums from one pass over amps, each bitwise equal
// to what Norm and Entropy return.
func NormEntropy[C complexAmp](amps []C) (norm, ent float64) { return reduce(amps, true) }

// reduce sums amps in parallel chunks; without entropy the second sum is 0
// and no logarithm is taken.
//
//qusim:hot
func reduce[C complexAmp](amps []C, entropy bool) (norm, ent float64) {
	return par.ReducePair(len(amps), reduceGrain, func(lo, hi int) (float64, float64) {
		switch {
		case hasSIMD:
			return reduceSIMD(amps[lo:hi], entropy)
		case entropy:
			return normEntropyGo(amps[lo:hi])
		}
		return normGo(amps[lo:hi]), 0
	})
}

func normGo[C complexAmp](amps []C) (norm float64) {
	for _, a := range amps {
		z := complex128(a)
		norm += real(z)*real(z) + imag(z)*imag(z)
	}
	return norm
}

func normEntropyGo[C complexAmp](amps []C) (norm, ent float64) {
	for _, a := range amps {
		z := complex128(a)
		p := real(z)*real(z) + imag(z)*imag(z)
		norm += p
		if p != 0 { // true for NaN, which must reach the sum
			ent -= p * math.Log(p)
		}
	}
	return norm, ent
}

// reduceSIMD sums amps with the assembly kernels of their precision, at
// this machine's width.
func reduceSIMD[C complexAmp](amps []C, entropy bool) (norm, ent float64) {
	switch a := any(amps).(type) {
	case []complex128:
		lanes, normKernel, entKernel := 4, simdNormF64, simdNormEntropyF64
		if hasAVX512 {
			lanes, normKernel, entKernel = 8, simd512NormF64, simd512NormEntropyF64
		}
		if entropy {
			return reduceBlocks(a, lanes, entKernel)
		}
		return reduceBlocks(a, lanes, normKernel)
	case []complex64:
		lanes, normKernel, entKernel := 4, simdNormF32, simdNormEntropyF32
		if hasAVX512 {
			lanes, normKernel, entKernel = 8, simd512NormF32, simd512NormEntropyF32
		}
		if entropy {
			return reduceBlocks(a, lanes, entKernel)
		}
		return reduceBlocks(a, lanes, normKernel)
	}
	panic("unreachable")
}

// reduceBlocks adds up kernel over amps, at most simdDiagBlock amplitudes a
// call (assembly is not preemptible) and always a multiple of the kernel's
// lanes, 4 or 8: the tail goes through a zero-padded copy, and zero
// amplitudes add +0.
func reduceBlocks[C complexAmp](amps []C, lanes int, kernel func(amps *C, n int) (norm, ent float64)) (norm, ent float64) {
	for len(amps) >= lanes {
		n := min(len(amps)&^(lanes-1), simdDiagBlock)
		a, b := kernel(&amps[0], n)
		norm, ent = norm+a, ent+b
		amps = amps[n:]
	}
	if len(amps) > 0 {
		var tail [8]C
		copy(tail[:], amps)
		a, b := kernel(&tail[0], lanes)
		norm, ent = norm+a, ent+b
	}
	return norm, ent
}

// MaxDiff returns the largest modulus of a[i] − b[i] over two states of the
// same length, taken in float64. The maximum is found on squared moduli, so
// differences below 1e-154 count as zero.
func MaxDiff[A, B complexAmp](a []A, b []B) float64 {
	var mu sync.Mutex
	var worst float64
	par.For(len(a), reduceGrain, func(lo, hi int) {
		var m float64
		for i := lo; i < hi; i++ {
			d := complex128(a[i]) - complex128(b[i])
			m = max(m, real(d)*real(d)+imag(d)*imag(d))
		}
		mu.Lock()
		worst = max(worst, m)
		mu.Unlock()
	})
	return math.Sqrt(worst)
}
