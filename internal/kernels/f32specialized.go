package kernels

// Hand-unrolled single-precision kernels for k ∈ {1, 2, 5}; k = 3 and 4 run
// the double-precision bodies of specialized.go, which widen each gathered
// amplitude and round each output once, and k > 5 takes the general-k
// kernel, matching the paper's kmax ≤ 5 cutoff (Table 1).
//
// The Go compiler lowers complex64 arithmetic to scalar pack/unpack
// sequences nearly an order of magnitude slower per byte than complex128,
// so the kernels here work on split float32 real/imaginary scalars and
// reassemble with complex() only at the store. The k = 1–2 kernels also
// walk the state in contiguous blocks (the 2^q0-amplitude runs between
// strides) through reslices instead of recomputing a bit-expanded index per
// group, which keeps the inner loop free of shifts/masks and lets the
// hardware prefetcher stream — where the halved memory traffic of Sec. 5's
// single-precision outlook turns into wall-clock speedup. They stay because
// they beat the widening bodies: on a 2^26-amplitude state (2-vCPU Xeon,
// purego) a widening body took 1.5× their time at k = 1 and 2 and 6–8 % more
// than apply5F32 at k = 5; at k = 4 it took 599–607 ms where the split-float32
// twin it replaced took 766–779 ms.

// specializedF32 prepares the hand-unrolled kernel for m on qs, and the
// general-k kernel beyond k = 5.
func specializedF32(m []complex64, qs []int) Dense[complex64] {
	switch len(qs) {
	case 0:
		// 0-qubit "gate" is a global scalar.
		s := m[0]
		return Dense[complex64]{grain: 4096, run: func(amps []complex64, lo, hi int) {
			scaleF32(amps[lo:hi], s)
		}}
	case 1:
		return apply1F32(m, qs[0])
	case 2:
		return apply2F32(m, qs[0], qs[1])
	case 3:
		return apply3(m, qs)
	case 4:
		return apply4(m, qs)
	case 5:
		return apply5F32(m, qs)
	}
	return general[complex64, float32](m, qs)
}

// apply1F32 applies a 1-qubit gate. The pair partners sit 2^q apart, so
// the state decomposes into blocks of 2·2^q amplitudes whose lower and
// upper halves are both contiguous; the two halves are walked as slice
// strands x and y with a shared index.
//
//qusim:hot
func apply1F32(m []complex64, q int) Dense[complex64] {
	s := 1 << q
	m00r, m00i := real(m[0]), imag(m[0])
	m01r, m01i := real(m[1]), imag(m[1])
	m10r, m10i := real(m[2]), imag(m[2])
	m11r, m11i := real(m[3]), imag(m[3])
	if q < 3 {
		// Strands this short (1–4 amplitudes) cost more in reslicing than
		// they save; walk pairs directly with the bit-expanded index.
		mask := 1<<q - 1
		return Dense[complex64]{shift: 1, grain: grain(1), run: func(amps []complex64, lo, hi int) {
			for t := lo; t < hi; t++ {
				i0 := ((t &^ mask) << 1) | (t & mask)
				i1 := i0 | s
				a0, a1 := amps[i0], amps[i1]
				a0r, a0i := real(a0), imag(a0)
				a1r, a1i := real(a1), imag(a1)
				amps[i0] = complex(
					m00r*a0r-m00i*a0i+m01r*a1r-m01i*a1i,
					m00r*a0i+m00i*a0r+m01r*a1i+m01i*a1r)
				amps[i1] = complex(
					m10r*a0r-m10i*a0i+m11r*a1r-m11i*a1i,
					m10r*a0i+m10i*a0r+m11r*a1i+m11i*a1r)
			}
		}}
	}
	return Dense[complex64]{shift: q + 1, grain: max(1, grain(1)>>q), run: func(amps []complex64, lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			base := blk << (q + 1)
			x := amps[base : base+s : base+s]
			y := amps[base+s : base+2*s : base+2*s]
			for j := range x {
				a0, a1 := x[j], y[j]
				a0r, a0i := real(a0), imag(a0)
				a1r, a1i := real(a1), imag(a1)
				x[j] = complex(
					m00r*a0r-m00i*a0i+m01r*a1r-m01i*a1i,
					m00r*a0i+m00i*a0r+m01r*a1i+m01i*a1r)
				y[j] = complex(
					m10r*a0r-m10i*a0i+m11r*a1r-m11i*a1i,
					m10r*a0i+m10i*a0r+m11r*a1i+m11i*a1r)
			}
		}
	}}
}

// apply2F32 applies a 2-qubit gate over contiguous runs: the four gate
// operands for consecutive base indices advance together through four
// slice strands of length 2^q0, so each block needs the bit-expansion
// only once.
//
//qusim:hot
func apply2F32(m []complex64, q0, q1 int) Dense[complex64] {
	mask0 := 1<<q0 - 1
	mask1 := 1<<q1 - 1
	s0, s1 := 1<<q0, 1<<q1
	var mr, mi [16]float32
	for i, v := range m {
		mr[i], mi[i] = real(v), imag(v)
	}
	return Dense[complex64]{shift: q0 + 2, grain: max(1, grain(2)>>q0), run: func(amps []complex64, lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			t := blk << q0
			b := ((t &^ mask0) << 1) | (t & mask0)
			b = ((b &^ mask1) << 1) | (b & mask1)
			x0 := amps[b : b+s0 : b+s0]
			x1 := amps[b+s0 : b+2*s0 : b+2*s0]
			x2 := amps[b+s1 : b+s1+s0 : b+s1+s0]
			x3 := amps[b+s1+s0 : b+s1+2*s0 : b+s1+2*s0]
			for j := range x0 {
				a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
				a0r, a0i := real(a0), imag(a0)
				a1r, a1i := real(a1), imag(a1)
				a2r, a2i := real(a2), imag(a2)
				a3r, a3i := real(a3), imag(a3)
				x0[j] = complex(
					mr[0]*a0r-mi[0]*a0i+mr[1]*a1r-mi[1]*a1i+mr[2]*a2r-mi[2]*a2i+mr[3]*a3r-mi[3]*a3i,
					mr[0]*a0i+mi[0]*a0r+mr[1]*a1i+mi[1]*a1r+mr[2]*a2i+mi[2]*a2r+mr[3]*a3i+mi[3]*a3r)
				x1[j] = complex(
					mr[4]*a0r-mi[4]*a0i+mr[5]*a1r-mi[5]*a1i+mr[6]*a2r-mi[6]*a2i+mr[7]*a3r-mi[7]*a3i,
					mr[4]*a0i+mi[4]*a0r+mr[5]*a1i+mi[5]*a1r+mr[6]*a2i+mi[6]*a2r+mr[7]*a3i+mi[7]*a3r)
				x2[j] = complex(
					mr[8]*a0r-mi[8]*a0i+mr[9]*a1r-mi[9]*a1i+mr[10]*a2r-mi[10]*a2i+mr[11]*a3r-mi[11]*a3i,
					mr[8]*a0i+mi[8]*a0r+mr[9]*a1i+mi[9]*a1r+mr[10]*a2i+mi[10]*a2r+mr[11]*a3i+mi[11]*a3r)
				x3[j] = complex(
					mr[12]*a0r-mi[12]*a0i+mr[13]*a1r-mi[13]*a1i+mr[14]*a2r-mi[14]*a2i+mr[15]*a3r-mi[15]*a3i,
					mr[12]*a0i+mi[12]*a0r+mr[13]*a1i+mi[13]*a1r+mr[14]*a2i+mi[14]*a2r+mr[15]*a3i+mi[15]*a3r)
			}
		}
	}}
}

// apply5F32 applies a 5-qubit gate with the 32 gathered amplitudes in
// split float32 stack arrays.
//
//qusim:hot
func apply5F32(m []complex64, qs []int) Dense[complex64] {
	var masks [5]int
	for j, q := range qs {
		masks[j] = 1<<q - 1
	}
	var offs [32]int
	copy(offs[:], offsets(qs))
	mr := make([]float32, 1024)
	mi := make([]float32, 1024)
	for i, v := range m {
		mr[i], mi[i] = real(v), imag(v)
	}
	return Dense[complex64]{shift: 5, grain: grain(5), run: func(amps []complex64, lo, hi int) {
		var ar, ai, tr, ti [32]float32
		for t := lo; t < hi; t++ {
			b := t
			b = ((b &^ masks[0]) << 1) | (b & masks[0])
			b = ((b &^ masks[1]) << 1) | (b & masks[1])
			b = ((b &^ masks[2]) << 1) | (b & masks[2])
			b = ((b &^ masks[3]) << 1) | (b & masks[3])
			b = ((b &^ masks[4]) << 1) | (b & masks[4])
			for x := 0; x < 32; x++ {
				v := amps[b+offs[x]]
				ar[x], ai[x] = real(v), imag(v)
			}
			for r := 0; r < 32; r++ {
				row := r << 5
				var or, oi float32
				for c := 0; c < 32; c += 4 {
					or += mr[row+c]*ar[c] - mi[row+c]*ai[c] +
						mr[row+c+1]*ar[c+1] - mi[row+c+1]*ai[c+1] +
						mr[row+c+2]*ar[c+2] - mi[row+c+2]*ai[c+2] +
						mr[row+c+3]*ar[c+3] - mi[row+c+3]*ai[c+3]
					oi += mr[row+c]*ai[c] + mi[row+c]*ar[c] +
						mr[row+c+1]*ai[c+1] + mi[row+c+1]*ar[c+1] +
						mr[row+c+2]*ai[c+2] + mi[row+c+2]*ar[c+2] +
						mr[row+c+3]*ai[c+3] + mi[row+c+3]*ar[c+3]
				}
				tr[r], ti[r] = or, oi
			}
			for x := 0; x < 32; x++ {
				amps[b+offs[x]] = complex(tr[x], ti[x])
			}
		}
	}}
}
