// Package emulate implements classical-shortcut emulation of quantum
// operations whose action is known in advance — the technique of Häner,
// Steiger, Smelyanskiy & Troyer [7] discussed in the paper's related work:
// "the quantum Fourier transform ... can be emulated by applying a fast
// Fourier transform to the state vector. However, such emulation techniques
// are not applicable to quantum supremacy circuits."
//
// The package provides the FFT-based QFT emulation (O(n·2^n) instead of
// O(n²·2^n) gate applications) and exists both as a library feature and to
// reproduce that related-work comparison in the benchmarks.
package emulate

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"qusim/internal/par"
	"qusim/internal/statevec"
)

// QFT applies the quantum Fourier transform to the state by running an
// in-place radix-2 FFT over the amplitudes, normalized and bit-reversed to
// match the circuit convention of circuit.QFT.
func QFT(v *statevec.Vector) {
	fft(v.Amps, false)
	scale := complex(1/math.Sqrt(float64(len(v.Amps))), 0)
	par.For(len(v.Amps), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v.Amps[i] *= scale
		}
	})
	v.ReverseBits()
}

// fft is an iterative in-place Cooley–Tukey radix-2 transform. inverse
// selects the conjugated twiddles. The output is in bit-reversed order
// relative to a textbook DFT of the input; combined with the explicit
// bit-reversal pass below the full transform matches the DFT with the sign
// convention X_k = Σ_x e^{+2πi kx/N} x_x (the QFT convention).
func fft(a []complex128, inverse bool) {
	n := len(a)
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("emulate: fft length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := 1.0
	if inverse {
		sign = -1
	}
	for size := 2; size <= n; size <<= 1 {
		ang := sign * 2 * math.Pi / float64(size)
		wstep := cmplx.Exp(complex(0, ang))
		half := size >> 1
		// Parallelize over blocks when they are numerous; within a block
		// the butterfly loop is sequential.
		blocks := n / size
		par.For(blocks, 1+4096/size, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				base := b * size
				w := complex(1, 0)
				for j := 0; j < half; j++ {
					u := a[base+j]
					t := a[base+j+half] * w
					a[base+j] = u + t
					a[base+j+half] = u - t
					w *= wstep
				}
			}
		})
	}
}
