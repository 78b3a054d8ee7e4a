package kernels

import "qusim/internal/par"

// The hand-unrolled kernels below are the Go equivalent of the paper's
// generated C++ kernels: one routine per k ∈ {1,…,5}, with strides and loop
// structure fixed at compile time — what runs where there is no assembly.
// The paper observes that kernels beyond kmax = 5 stop paying off (Table 1
// uses kmax ≤ 5); wider gates take the general-k kernel.

// specialized prepares the hand-unrolled kernel for m on qs, and the
// general-k kernel beyond k = 5.
func specialized(m []complex128, qs []int) Dense[complex128] {
	switch len(qs) {
	case 0:
		// 0-qubit "gate" is a global scalar.
		s := m[0]
		return Dense[complex128]{grain: 4096, run: func(amps []complex128, lo, hi int) {
			for i := lo; i < hi; i++ {
				amps[i] *= s
			}
		}}
	case 1:
		return apply1(m, qs[0])
	case 2:
		return apply2(m, qs[0], qs[1])
	case 3:
		return apply3(m, qs)
	case 4:
		return apply4(m, qs)
	case 5:
		return apply5(m, qs)
	}
	return general(m, qs)
}

// apply1 applies a 1-qubit gate: one fused pair update per amplitude pair.
//
//qusim:hot
func apply1(m []complex128, q int) Dense[complex128] {
	mask := 1<<q - 1
	s := 1 << q
	m00, m01, m10, m11 := m[0], m[1], m[2], m[3]
	return Dense[complex128]{shift: 1, grain: grain(1), run: func(amps []complex128, lo, hi int) {
		for t := lo; t < hi; t++ {
			i0 := ((t &^ mask) << 1) | (t & mask)
			i1 := i0 | s
			a0, a1 := amps[i0], amps[i1]
			amps[i0] = m00*a0 + m01*a1
			amps[i1] = m10*a0 + m11*a1
		}
	}}
}

// apply2 applies a 2-qubit gate, fully unrolled over the 4 amplitudes of
// each base index.
//
//qusim:hot
func apply2(m []complex128, q0, q1 int) Dense[complex128] {
	mask0 := 1<<q0 - 1
	mask1 := 1<<q1 - 1
	s0, s1 := 1<<q0, 1<<q1
	var mm [16]complex128
	copy(mm[:], m)
	return Dense[complex128]{shift: 2, grain: grain(2), run: func(amps []complex128, lo, hi int) {
		for t := lo; t < hi; t++ {
			b := ((t &^ mask0) << 1) | (t & mask0)
			b = ((b &^ mask1) << 1) | (b & mask1)
			i1, i2, i3 := b|s0, b|s1, b|s0|s1
			a0, a1, a2, a3 := amps[b], amps[i1], amps[i2], amps[i3]
			amps[b] = mm[0]*a0 + mm[1]*a1 + mm[2]*a2 + mm[3]*a3
			amps[i1] = mm[4]*a0 + mm[5]*a1 + mm[6]*a2 + mm[7]*a3
			amps[i2] = mm[8]*a0 + mm[9]*a1 + mm[10]*a2 + mm[11]*a3
			amps[i3] = mm[12]*a0 + mm[13]*a1 + mm[14]*a2 + mm[15]*a3
		}
	}}
}

// apply3 applies a 3-qubit gate with the 8 gathered amplitudes and outputs
// in fixed-size stack arrays.
//
//qusim:hot
func apply3(m []complex128, qs []int) Dense[complex128] {
	mask0 := 1<<qs[0] - 1
	mask1 := 1<<qs[1] - 1
	mask2 := 1<<qs[2] - 1
	var offs [8]int
	copy(offs[:], offsets(qs))
	var mm [64]complex128
	copy(mm[:], m)
	return Dense[complex128]{shift: 3, grain: grain(3), run: func(amps []complex128, lo, hi int) {
		var a, o [8]complex128
		for t := lo; t < hi; t++ {
			b := ((t &^ mask0) << 1) | (t & mask0)
			b = ((b &^ mask1) << 1) | (b & mask1)
			b = ((b &^ mask2) << 1) | (b & mask2)
			for x := 0; x < 8; x++ {
				a[x] = amps[b+offs[x]]
			}
			for r := 0; r < 8; r++ {
				row := r << 3
				o[r] = mm[row]*a[0] + mm[row+1]*a[1] + mm[row+2]*a[2] + mm[row+3]*a[3] +
					mm[row+4]*a[4] + mm[row+5]*a[5] + mm[row+6]*a[6] + mm[row+7]*a[7]
			}
			for x := 0; x < 8; x++ {
				amps[b+offs[x]] = o[x]
			}
		}
	}}
}

// apply4 applies a 4-qubit gate with the 16 gathered amplitudes and
// outputs in fixed-size stack arrays.
//
//qusim:hot
func apply4(m []complex128, qs []int) Dense[complex128] {
	mask0 := 1<<qs[0] - 1
	mask1 := 1<<qs[1] - 1
	mask2 := 1<<qs[2] - 1
	mask3 := 1<<qs[3] - 1
	var offs [16]int
	copy(offs[:], offsets(qs))
	var mm [256]complex128
	copy(mm[:], m)
	return Dense[complex128]{shift: 4, grain: grain(4), run: func(amps []complex128, lo, hi int) {
		var a, o [16]complex128
		for t := lo; t < hi; t++ {
			b := ((t &^ mask0) << 1) | (t & mask0)
			b = ((b &^ mask1) << 1) | (b & mask1)
			b = ((b &^ mask2) << 1) | (b & mask2)
			b = ((b &^ mask3) << 1) | (b & mask3)
			for x := 0; x < 16; x++ {
				a[x] = amps[b+offs[x]]
			}
			for r := 0; r < 16; r++ {
				row := r << 4
				acc := mm[row]*a[0] + mm[row+1]*a[1] + mm[row+2]*a[2] + mm[row+3]*a[3]
				acc += mm[row+4]*a[4] + mm[row+5]*a[5] + mm[row+6]*a[6] + mm[row+7]*a[7]
				acc += mm[row+8]*a[8] + mm[row+9]*a[9] + mm[row+10]*a[10] + mm[row+11]*a[11]
				acc += mm[row+12]*a[12] + mm[row+13]*a[13] + mm[row+14]*a[14] + mm[row+15]*a[15]
				o[r] = acc
			}
			for x := 0; x < 16; x++ {
				amps[b+offs[x]] = o[x]
			}
		}
	}}
}

// apply5 applies a 5-qubit gate with the 32 gathered amplitudes and
// outputs in fixed-size stack arrays.
//
//qusim:hot
func apply5(m []complex128, qs []int) Dense[complex128] {
	var masks [5]int
	for j, q := range qs {
		masks[j] = 1<<q - 1
	}
	var offs [32]int
	copy(offs[:], offsets(qs))
	var mm [1024]complex128
	copy(mm[:], m)
	return Dense[complex128]{shift: 5, grain: grain(5), run: func(amps []complex128, lo, hi int) {
		var a, o [32]complex128
		for t := lo; t < hi; t++ {
			b := t
			b = ((b &^ masks[0]) << 1) | (b & masks[0])
			b = ((b &^ masks[1]) << 1) | (b & masks[1])
			b = ((b &^ masks[2]) << 1) | (b & masks[2])
			b = ((b &^ masks[3]) << 1) | (b & masks[3])
			b = ((b &^ masks[4]) << 1) | (b & masks[4])
			for x := 0; x < 32; x++ {
				a[x] = amps[b+offs[x]]
			}
			for r := 0; r < 32; r++ {
				row := r << 5
				var acc complex128
				for c := 0; c < 32; c += 4 {
					acc += mm[row+c]*a[c] + mm[row+c+1]*a[c+1] + mm[row+c+2]*a[c+2] + mm[row+c+3]*a[c+3]
				}
				o[r] = acc
			}
			for x := 0; x < 32; x++ {
				amps[b+offs[x]] = o[x]
			}
		}
	}}
}

// Scale multiplies every amplitude by s (global-phase absorption and the
// conditional global phase of Sec. 3.5).
//
//qusim:hot
func Scale[T complexAmp](amps []T, s T) {
	scale := scaleFor[T]()
	par.For(len(amps), 4096, func(lo, hi int) { scale(amps[lo:hi], s) })
}
