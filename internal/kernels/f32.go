package kernels

import (
	"fmt"

	"qusim/internal/par"
)

// Single-precision (complex64) kernel suite — the Sec. 5 outlook made
// concrete: every optimization level of the complex128 kernels has an f32
// twin, because halving the bytes per amplitude halves the memory traffic
// that dominates k = 1–2 gates and doubles the qubits that fit in the same
// memory. The variants share the Variant enum, dispatch rules and
// grain/offset helpers with the double-precision path; only the element
// type (and the float32 operand tables of the Split/Generated forms)
// differs.

// ApplyF32 applies the 2^k × 2^k complex64 matrix m (sorted qubit order) to
// the qubits at sorted bit positions qs of the single-precision state amps,
// using the selected variant. The contract mirrors Apply: Naive needs a
// second vector (scratch, or nil to allocate) and returns the buffer holding
// the result; all other variants are in-place and return amps.
func ApplyF32(v Variant, amps []complex64, m []complex64, qs []int, scratch []complex64) []complex64 {
	checkArgs(len(amps), m, qs)
	if v == Auto {
		v = SelectedFor(len(qs), StrideClassOf(qs), true)
	}
	switch v {
	case Naive:
		if scratch == nil {
			scratch = make([]complex64, len(amps))
		}
		if len(scratch) != len(amps) {
			panic("kernels: scratch length mismatch")
		}
		applyNaiveF32(scratch, amps, m, qs)
		return scratch
	case InPlace:
		applyInPlaceF32(amps, m, qs)
	case Split:
		applySplitF32(amps, m, qs)
	case Specialized:
		applySpecializedF32(amps, m, qs)
	case Generated:
		applyGeneratedF32(amps, m, qs)
	case SIMD:
		applySIMDF32(amps, m, qs)
	default:
		panic(fmt.Sprintf("kernels: unknown variant %d", int(v)))
	}
	return amps
}

// ToComplex64 converts a complex128 gate matrix (or diagonal) to the
// complex64 form the f32 kernels consume.
func ToComplex64(m []complex128) []complex64 {
	out := make([]complex64, len(m))
	for i, v := range m {
		out[i] = complex64(v)
	}
	return out
}

// applyNaiveF32 computes dst = (1⊗…⊗U⊗…⊗1)·src with two full vectors, the
// Sec. 3.1 baseline in single precision.
//
//qusim:hot
func applyNaiveF32(dst, src, m []complex64, qs []int) {
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
				var acc complex64
				for c := 0; c < dk; c++ {
					acc += row[c] * src[base+offs[c]]
				}
				dst[base+offs[r]] = acc
			}
		}
	})
}

// applyInPlaceF32 is optimization step 1 in single precision: gather the
// 2^k amplitudes into a temporary, multiply, scatter back (Sec. 3.2).
//
//qusim:hot
func applyInPlaceF32(amps, m []complex64, qs []int) {
	k := len(qs)
	dk := 1 << k
	masks := insertMasks(qs)
	offs := offsets(qs)
	outer := len(amps) >> k
	par.For(outer, grain(k), func(lo, hi int) {
		tmp := make([]complex64, dk)
		for t := lo; t < hi; t++ {
			base := expand(t, masks)
			for x := 0; x < dk; x++ {
				tmp[x] = amps[base+offs[x]]
			}
			for r := 0; r < dk; r++ {
				row := m[r*dk : (r+1)*dk]
				var acc complex64
				for c := 0; c < dk; c++ {
					acc += row[c] * tmp[c]
				}
				amps[base+offs[r]] = acc
			}
		}
	})
}

// applySplitF32 is optimization steps 2–3 in single precision: the complex
// multiply-accumulate over split real/imaginary float32 operands with the
// (mR,mR)/(−mI,mI) pre-computation of Eq. (2)–(3) and splitBlock-wide
// column blocking (shared with the double-precision kernel).
//
//qusim:hot
func applySplitF32(amps, m []complex64, qs []int) {
	k := len(qs)
	dk := 1 << k
	masks := insertMasks(qs)
	offs := offsets(qs)
	mR := make([]float32, dk*dk)
	mNI := make([]float32, dk*dk) // −imag(m)
	for i, v := range m {
		mR[i] = real(v)
		mNI[i] = -imag(v)
	}
	outer := len(amps) >> k
	bsz := splitBlock
	if bsz > dk {
		bsz = dk
	}
	par.For(outer, grain(k), func(lo, hi int) {
		aR := make([]float32, dk)
		aI := make([]float32, dk)
		oR := make([]float32, dk)
		oI := make([]float32, dk)
		for t := lo; t < hi; t++ {
			base := expand(t, masks)
			for x := 0; x < dk; x++ {
				v := amps[base+offs[x]]
				aR[x] = real(v)
				aI[x] = imag(v)
				oR[x] = 0
				oI[x] = 0
			}
			for b := 0; b < dk; b += bsz {
				be := b + bsz
				if be > dk {
					be = dk
				}
				for r := 0; r < dk; r++ {
					row := r * dk
					accR := oR[r]
					accI := oI[r]
					for c := b; c < be; c++ {
						vr := aR[c]
						vi := aI[c]
						wr := mR[row+c]
						wni := mNI[row+c]
						accR += vr*wr + vi*wni
						accI += vi*wr - vr*wni
					}
					oR[r] = accR
					oI[r] = accI
				}
			}
			for x := 0; x < dk; x++ {
				amps[base+offs[x]] = complex(oR[x], oI[x])
			}
		}
	})
}
