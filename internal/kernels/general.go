package kernels

import "math"

// The pure-Go kernels: what runs where there is no assembly (another
// architecture, an x86 without AVX2+FMA+BMI2, the purego tag), and beyond
// k = 5 everywhere. They compute what the assembly computes in every lane,
// with explicit math.FMA in the assembly's order, so every kernel set
// produces the same bits in double precision; a complex64 state is
// computed in float64 and rounded once per part at the store.

// prepareGo prepares m on qs with the pure-Go kernels: the scalar multiply
// of Scale for a 0-qubit gate, the straight-line body cmd/kernelgen writes
// for k = 1…5 (gokernels.go), the general-k loop beyond.
func prepareGo[C complexAmp](m []C, qs []int) Dense[C] {
	switch k := len(qs); {
	case k == 0:
		s, scale := m[0], scaleFor[C]()
		return Dense[C]{grain: 4096, run: func(amps []C, lo, hi int) { scale(amps[lo:hi], s) }}
	case k <= simdMaxK:
		return goDense(m, qs)
	}
	return general(m, qs)
}

// PrepareGeneral prepares m on qs with the general-k kernel whatever k is —
// PrepareDense picks it only beyond the straight-line kernels.
func PrepareGeneral[T complexAmp](m []T, qs []int, n int) Dense[T] {
	checkArgs(n, m, qs)
	return general(m, qs)
}

// general is the general-k kernel, optimization steps 2–3 of Sec. 3.2 for
// any k: the matrix pre-computed into its (mR, −mI, mI) operands, so the
// inner update is the two FMAs per entry of Eq. (2)–(3) in the order of the
// straight-line kernels, as a loop over rows and columns, register-blocked
// over pairs of output rows — each gathered amplitude feeds both rows'
// accumulators, four FMA chains in flight (at k = 0 both halves of the pair
// are row 0). Fig. 2 measures it at k = 1 and 4 as the step between the
// in-place and the per-k kernels.
//
//qusim:hot
func general[C complexAmp](m []C, qs []int) Dense[C] {
	k := len(qs)
	dk := 1 << k
	masks, offs := insertMasks(qs), offsets(qs)
	// Pre-computation on the gate matrix: essentially free, reused 2^(n-k)
	// times (Sec. 3.2).
	mat := expandMatrix[C, float64](m, k, 1)
	return Dense[C]{shift: k, grain: grain(k), run: func(amps []C, lo, hi int) {
		in := make([]complex128, dk)
		for t := lo; t < hi; t++ {
			base := expand(t, masks)
			for x := range in {
				in[x] = complex128(amps[base+offs[x]])
			}
			for r := 0; r < dk; r += 2 {
				r1 := min(r+1, dk-1)
				row0, row1 := mat[3*dk*r:3*dk*(r+1)], mat[3*dk*r1:3*dk*(r1+1)]
				var re0, im0, re1, im1 float64
				for c, a := range in {
					w0, w1 := row0[3*c:3*c+3], row1[3*c:3*c+3]
					re0, im0 = math.FMA(w0[0], real(a), re0), math.FMA(w0[0], imag(a), im0)
					re0, im0 = math.FMA(w0[1], imag(a), re0), math.FMA(w0[2], real(a), im0)
					re1, im1 = math.FMA(w1[0], real(a), re1), math.FMA(w1[0], imag(a), im1)
					re1, im1 = math.FMA(w1[1], imag(a), re1), math.FMA(w1[2], real(a), im1)
				}
				amps[base+offs[r]] = C(complex(re0, im0))
				amps[base+offs[r1]] = C(complex(re1, im1))
			}
		}
	}}
}
