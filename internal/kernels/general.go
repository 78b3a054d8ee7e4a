package kernels

import "unsafe"

// The general-k kernel: optimization steps 2–3 of Sec. 3.2 for any k. The
// complex multiply-accumulate is rewritten over split real/imaginary
// operands — the gate matrix pre-computed into two real-valued tables,
// (mR, mR) and (−mI, mI), so the inner update is two multiply-adds per entry,
// the FMA-friendly form of Eq. (2)–(3) — and the columns are processed in
// blocks of generalBlock so the accumulators stay in registers. It is what
// gates wider than the unrolled kernels (k > 5) run, on every machine; Fig. 2
// measures it at k = 1 and 4 as the step between the in-place and the
// per-k kernels.
//
// One body at both precisions: real and imag are not permitted on a type
// parameter, so the kernel reads and writes the amplitudes and the matrix
// as their real and imaginary parts, of the precision's own float type F —
// the layout AmpBytes exposes — and converts nothing: each precision keeps
// its bits.

// generalBlock is the register-blocking width over matrix columns (the
// block size B of Sec. 3.2): 4 is what a benchmarking feedback loop
// converges to on scalar targets.
const generalBlock = 4

// PrepareGeneral prepares m on qs with the general-k kernel whatever k is —
// PrepareDense picks it only beyond the unrolled kernels.
func PrepareGeneral[T complexAmp](m []T, qs []int, n int) Dense[T] {
	checkArgs(n, m, qs)
	var out any
	switch m := any(m).(type) {
	case []complex128:
		out = general[complex128, float64](m, qs)
	case []complex64:
		out = general[complex64, float32](m, qs)
	}
	return out.(Dense[T])
}

// parts views a as the real and imaginary part of each amplitude in turn;
// F must be C's component type.
func parts[C complexAmp, F float32 | float64](a []C) []F {
	return unsafe.Slice((*F)(unsafe.Pointer(unsafe.SliceData(a))), 2*len(a))
}

// general prepares the general-k kernel on amplitudes of type C, computing
// in F, its component type.
//
//qusim:hot
func general[C complexAmp, F float32 | float64](m []C, qs []int) Dense[C] {
	k := len(qs)
	dk := 1 << k
	masks := insertMasks(qs)
	offs := offsets(qs)
	// Pre-computation on the gate matrix: essentially free, reused 2^(n-k)
	// times (Sec. 3.2).
	mp := parts[C, F](m)
	mR := make([]F, dk*dk)
	mNI := make([]F, dk*dk) // −imag(m)
	for i := range mR {
		mR[i] = mp[2*i]
		mNI[i] = -mp[2*i+1]
	}
	bsz := min(generalBlock, dk)
	return Dense[C]{shift: k, grain: grain(k), run: func(amps []C, lo, hi int) {
		ap := parts[C, F](amps)
		aR := make([]F, dk)
		aI := make([]F, dk)
		oR := make([]F, dk)
		oI := make([]F, dk)
		for t := lo; t < hi; t++ {
			base := expand(t, masks)
			for x := 0; x < dk; x++ {
				i := 2 * (base + offs[x])
				aR[x] = ap[i]
				aI[x] = ap[i+1]
				oR[x] = 0
				oI[x] = 0
			}
			// Blocked update: for each column block, update every output
			// row (v~_l += Σ_{j<B} m_{l,i(b,j)} v_{i(b,j)}).
			for b := 0; b < dk; b += bsz {
				be := b + bsz
				for r := 0; r < dk; r++ {
					row := r * dk
					accR := oR[r]
					accI := oI[r]
					for c := b; c < be; c++ {
						vr := aR[c]
						vi := aI[c]
						wr := mR[row+c]
						wni := mNI[row+c]
						// oR += vr·wr + vi·(−wi); oI += vi·wr − vr·(−wi)
						accR += vr*wr + vi*wni
						accI += vi*wr - vr*wni
					}
					oR[r] = accR
					oI[r] = accI
				}
			}
			for x := 0; x < dk; x++ {
				i := 2 * (base + offs[x])
				ap[i] = oR[x]
				ap[i+1] = oI[x]
			}
		}
	}}
}
