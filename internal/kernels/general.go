package kernels

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
// One body per precision: real and imag are not permitted on a type
// parameter, and the compiler's complex64 product is the pack/unpack
// sequence f32specialized.go was written to avoid.

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
		out = general(m, qs)
	case []complex64:
		out = generalF32(m, qs)
	}
	return out.(Dense[T])
}

// general prepares the double-precision general-k kernel.
//
//qusim:hot
func general(m []complex128, qs []int) Dense[complex128] {
	k := len(qs)
	dk := 1 << k
	masks := insertMasks(qs)
	offs := offsets(qs)
	// Pre-computation on the gate matrix: essentially free, reused 2^(n-k)
	// times (Sec. 3.2).
	mR := make([]float64, dk*dk)
	mNI := make([]float64, dk*dk) // −imag(m)
	for i, v := range m {
		mR[i] = real(v)
		mNI[i] = -imag(v)
	}
	bsz := min(generalBlock, dk)
	return Dense[complex128]{shift: k, grain: grain(k), run: func(amps []complex128, lo, hi int) {
		aR := make([]float64, dk)
		aI := make([]float64, dk)
		oR := make([]float64, dk)
		oI := make([]float64, dk)
		for t := lo; t < hi; t++ {
			base := expand(t, masks)
			for x := 0; x < dk; x++ {
				v := amps[base+offs[x]]
				aR[x] = real(v)
				aI[x] = imag(v)
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
				amps[base+offs[x]] = complex(oR[x], oI[x])
			}
		}
	}}
}

// generalF32 is general in single precision, on float32 operand tables.
//
//qusim:hot
func generalF32(m []complex64, qs []int) Dense[complex64] {
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
	bsz := min(generalBlock, dk)
	return Dense[complex64]{shift: k, grain: grain(k), run: func(amps []complex64, lo, hi int) {
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
	}}
}
