package kernels

import "qusim/internal/par"

// The specialized kernels below are the Go equivalent of the paper's
// generated C++ kernels: one hand-unrolled routine per k ∈ {1,…,5}, with
// strides and loop structure fixed at compile time. k > 5 falls back to the
// Split kernel, matching the paper's observation that kernels beyond
// kmax = 5 stop paying off (Table 1 uses kmax ≤ 5).

// applySpecialized dispatches to the hand-unrolled kernel for k ≤ 5 and
// to the blocked Split kernel beyond (Table 1 uses kmax ≤ 5).
//
//qusim:hot
func applySpecialized(amps, m []complex128, qs []int) {
	switch len(qs) {
	case 0:
		// 0-qubit "gate" is a global scalar.
		s := m[0]
		par.For(len(amps), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				amps[i] *= s
			}
		})
	case 1:
		apply1(amps, m, qs[0])
	case 2:
		apply2(amps, m, qs[0], qs[1])
	case 3:
		apply3(amps, m, qs)
	case 4:
		apply4(amps, m, qs)
	case 5:
		apply5(amps, m, qs)
	default:
		applySplit(amps, m, qs)
	}
}

// apply1 applies a 1-qubit gate: one fused pair update per amplitude pair.
//
//qusim:hot
func apply1(amps, m []complex128, q int) {
	mask := 1<<q - 1
	s := 1 << q
	m00, m01, m10, m11 := m[0], m[1], m[2], m[3]
	par.For(len(amps)>>1, grain(1), func(lo, hi int) {
		for t := lo; t < hi; t++ {
			i0 := ((t &^ mask) << 1) | (t & mask)
			i1 := i0 | s
			a0, a1 := amps[i0], amps[i1]
			amps[i0] = m00*a0 + m01*a1
			amps[i1] = m10*a0 + m11*a1
		}
	})
}

// apply2 applies a 2-qubit gate, fully unrolled over the 4 amplitudes of
// each base index.
//
//qusim:hot
func apply2(amps, m []complex128, q0, q1 int) {
	mask0 := 1<<q0 - 1
	mask1 := 1<<q1 - 1
	s0, s1 := 1<<q0, 1<<q1
	var mm [16]complex128
	copy(mm[:], m)
	par.For(len(amps)>>2, grain(2), func(lo, hi int) {
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
	})
}

// apply3 applies a 3-qubit gate with the 8 gathered amplitudes and outputs
// in fixed-size stack arrays.
//
//qusim:hot
func apply3(amps, m []complex128, qs []int) {
	mask0 := 1<<qs[0] - 1
	mask1 := 1<<qs[1] - 1
	mask2 := 1<<qs[2] - 1
	var offs [8]int
	copy(offs[:], offsets(qs))
	var mm [64]complex128
	copy(mm[:], m)
	par.For(len(amps)>>3, grain(3), func(lo, hi int) {
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
	})
}

// apply4 applies a 4-qubit gate with the 16 gathered amplitudes and
// outputs in fixed-size stack arrays.
//
//qusim:hot
func apply4(amps, m []complex128, qs []int) {
	mask0 := 1<<qs[0] - 1
	mask1 := 1<<qs[1] - 1
	mask2 := 1<<qs[2] - 1
	mask3 := 1<<qs[3] - 1
	var offs [16]int
	copy(offs[:], offsets(qs))
	var mm [256]complex128
	copy(mm[:], m)
	par.For(len(amps)>>4, grain(4), func(lo, hi int) {
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
	})
}

// apply5 applies a 5-qubit gate with the 32 gathered amplitudes and
// outputs in fixed-size stack arrays.
//
//qusim:hot
func apply5(amps, m []complex128, qs []int) {
	var masks [5]int
	for j, q := range qs {
		masks[j] = 1<<q - 1
	}
	var offs [32]int
	copy(offs[:], offsets(qs))
	var mm [1024]complex128
	copy(mm[:], m)
	par.For(len(amps)>>5, grain(5), func(lo, hi int) {
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
	})
}

// ApplyDiagonal multiplies each amplitude by the diagonal entry selected by
// the bits of its index at positions qs. This is the no-communication,
// no-matvec fast path that gate specialization (Sec. 3.5) exploits.
//
// The index bits at qs are constant across each contiguous run of 2^qs[0]
// amplitudes, so the sweep walks runs: one entry lookup per run, then a
// tight multiply loop — and runs whose entry is exactly 1 are skipped
// outright, which for the phase-type diagonals of the supremacy gate set
// (T, S, CZ, controlled-phase) leaves most of the state untouched.
//
//qusim:hot
func ApplyDiagonal(amps []complex128, d []complex128, qs []int) {
	k := len(qs)
	if len(d) != 1<<k {
		panic("kernels: diagonal length mismatch")
	}
	if k == 0 {
		if d[0] != 1 {
			Scale(amps, d[0])
		}
		return
	}
	q0 := qs[0]
	if q0 < diagRunMin {
		// Short runs: per-run dispatch overhead would dominate. Compile the
		// non-unit segments of one window of the index pattern and replay
		// them across the state instead.
		nlo, window := diagWindow(qs, len(amps))
		applyDiagWindows(amps, d, qs[:nlo], qs[nlo:], window)
		return
	}
	runs := len(amps) >> q0
	par.For(runs, max(1, 4096>>q0), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r << q0
			x := 0
			for j := 0; j < k; j++ {
				x |= (base >> qs[j] & 1) << j
			}
			dx := d[x]
			if dx == 1 {
				continue
			}
			blk := amps[base : base+1<<q0 : base+1<<q0]
			if hasSIMD {
				simdScaleF64(blk, dx)
				continue
			}
			if dx == -1 { // CZ / Z-type entries: negate, no multiply
				for j := range blk {
					blk[j] = -blk[j]
				}
				continue
			}
			for j := range blk {
				blk[j] *= dx
			}
		}
	})
}

// diagRunMin and diagPeriodMax pick between the diagonal sweeps: runs of at
// least 2^diagRunMin amplitudes amortize the per-run entry lookup; below
// that the windowed replay takes over, over the pattern's whole period as
// long as its table stays comfortably inside L1 (2^(diagPeriodMax+1) index
// period) and over 2^diagRunMin-amplitude windows beyond.
const (
	diagRunMin    = 6
	diagPeriodMax = 13
)

// diagSegment is one maximal run of identical non-unit diagonal entries
// within a period of the index pattern. simdDiagF64 and simdDiagF32 read
// the fields by offset: the layout is part of cmd/kernelgen's contract.
type diagSegment[T complexAmp] struct {
	off, n int
	dx     T
}

// complexAmp constrains the two amplitude element types.
type complexAmp interface{ complex64 | complex128 }

// diagSegments compiles the entries of d hit across one period of the
// index pattern into maximal contiguous non-unit segments.
func diagSegments[T complexAmp](d []T, qs []int, period int) []diagSegment[T] {
	k := len(qs)
	entry := func(i int) T {
		x := 0
		for j := 0; j < k; j++ {
			x |= (i >> qs[j] & 1) << j
		}
		return d[x]
	}
	var segs []diagSegment[T]
	for i := 0; i < period; {
		dx := entry(i)
		if dx == 1 {
			i++
			continue
		}
		start := i
		for i < period && entry(i) == dx {
			i++
		}
		segs = append(segs, diagSegment[T]{off: start, n: i - start, dx: dx})
	}
	return segs
}

// diagWindow splits the sorted positions qs (qs[0] < diagRunMin) for the
// windowed diagonal sweep over n amplitudes: the first nlo positions vary
// inside a window of that many amplitudes, the rest are constant across it.
// While the whole pattern's period stays comfortably inside L1 the window
// is one period — or several, up to 2^diagRunMin amplitudes, so that a
// pattern on position 0 alone is not replayed two amplitudes at a time;
// beyond that only the short-run positions stay inside the window.
func diagWindow(qs []int, n int) (nlo, window int) {
	if top := qs[len(qs)-1]; top < diagPeriodMax {
		return len(qs), min(max(1<<(top+1), 1<<diagRunMin), n)
	}
	for nlo < len(qs) && qs[nlo] < diagRunMin {
		nlo++
	}
	return nlo, 1 << diagRunMin
}

// diagWindowSegments compiles, for each value of the nhi window-constant
// index bits, the non-unit segments of one window over the positions lo.
// It returns nil when every entry is 1.
func diagWindowSegments[T complexAmp](d []T, lo []int, nhi, window int) [][]diagSegment[T] {
	segs := make([][]diagSegment[T], 1<<nhi)
	empty := true
	for x := range segs {
		segs[x] = diagSegments(d[x<<len(lo):(x+1)<<len(lo)], lo, window)
		empty = empty && len(segs[x]) == 0
	}
	if empty {
		return nil
	}
	return segs
}

// applyDiagWindows is the low-position diagonal sweep: the positions lo
// vary inside each window of the index space and the positions hi select,
// once per window, which compiled list of non-unit segments to replay over
// it — no per-index bit extraction, and indices with unit entries are
// never visited.
//
//qusim:hot
func applyDiagWindows(amps []complex128, d []complex128, lo, hi []int, window int) {
	segs := diagWindowSegments(d, lo, len(hi), window)
	if segs == nil {
		return
	}
	par.For(len(amps)/window, max(1, 8192/window), func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			base := b * window
			x := 0
			for j, q := range hi {
				x |= (base >> q & 1) << j
			}
			if hasSIMD {
				if len(segs[x]) > 0 {
					simdDiagF64(&amps[base], &segs[x][0], len(segs[x]))
				}
				continue
			}
			for _, s := range segs[x] {
				blk := amps[base+s.off : base+s.off+s.n : base+s.off+s.n]
				if s.dx == -1 {
					for j := range blk {
						blk[j] = -blk[j]
					}
					continue
				}
				for j := range blk {
					blk[j] *= s.dx
				}
			}
		}
	})
}

// ApplyCZ applies a controlled-Z between bit positions a and b without a
// matrix: amplitudes with both bits set are negated.
//
//qusim:hot
func ApplyCZ(amps []complex128, a, b int) {
	mask := 1<<a | 1<<b
	par.For(len(amps), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i&mask == mask {
				amps[i] = -amps[i]
			}
		}
	})
}

// Scale multiplies every amplitude by s (global-phase absorption and the
// conditional global phase of Sec. 3.5).
//
//qusim:hot
func Scale(amps []complex128, s complex128) {
	par.For(len(amps), 4096, func(lo, hi int) {
		if hasSIMD {
			simdScaleF64(amps[lo:hi], s)
			return
		}
		for i := lo; i < hi; i++ {
			amps[i] *= s
		}
	})
}
