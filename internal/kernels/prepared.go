package kernels

import (
	"fmt"
	"math/bits"

	"qusim/internal/par"
)

// Prepared ops. What a gate costs before its first amplitude moves — picking
// the kernel, the chunk-space layout and the matrix in the kernel's
// operand order for a dense gate; the entry table, window by window or run
// by run, for a diagonal — depends on the gate and its positions only, not on
// the state. Dense and Diagonal hold that work so it is done once and the
// op then applied any number of times: Sweep covers a whole state through
// package par, Block covers a contiguous, aligned piece of one on the
// calling goroutine and never reaches par. Both walk the same body, so an
// amplitude sees the same instructions whichever entry point reaches it —
// what lets an executor apply a run of ops to one cache-sized block after
// another (schedule.Shard) and land bit for bit where op-by-op sweeps do.

// complexAmp constrains the two amplitude element types.
type complexAmp interface{ complex64 | complex128 }

// Dense is a k-qubit gate prepared for states of element type T.
type Dense[T complexAmp] struct {
	shift int // one iteration of run covers 2^shift amplitudes
	grain int // least iterations worth a par.For chunk
	run   func(amps []T, lo, hi int)
}

// PrepareDense prepares the 2^k × 2^k matrix m (sorted qubit order) on the
// sorted positions qs for states of at least n amplitudes, with the kernel
// this machine runs for that k and element type: for k = 1…5 the assembly
// of ISA's width — where ISA is "avx512", the ZMM kernel on any state that
// fills its lanes (2^(k+2) complex128, 2^(k+3) complex64) and the YMM
// kernel, which computes the same bits, below that — the hand-unrolled Go
// kernel for k ≤ 5 where ISA is "go", the general-k kernel beyond.
func PrepareDense[T complexAmp](m []T, qs []int, n int) Dense[T] {
	checkArgs(n, m, qs)
	k := len(qs)
	simd := hasSIMD && k >= 1 && k <= simdMaxK
	var out any
	switch m := any(m).(type) {
	case []complex128:
		switch {
		case !simd:
			out = specialized(m, qs)
		case hasAVX512 && n >= 1<<(k+2):
			out = zmmF64(m, qs)
		default:
			out = ymmF64(m, qs)
		}
	case []complex64:
		switch {
		case !simd:
			out = specializedF32(m, qs)
		case hasAVX512 && n >= 1<<(k+3):
			out = zmmF32(m, qs)
		default:
			out = ymmF32(m, qs)
		}
	}
	return out.(Dense[T])
}

// Sweep applies the gate to the whole state amps, spread over par's
// workers.
func (d *Dense[T]) Sweep(amps []T) {
	if len(amps) < 1<<d.shift {
		// Too few amplitudes to fill the SIMD lanes: pad with zero
		// amplitudes under a spare high bit, which the lanes then run across.
		padded := make([]T, 1<<d.shift)
		copy(padded, amps)
		d.run(padded, 0, 1)
		copy(amps, padded)
		return
	}
	par.For(len(amps)>>d.shift, d.grain, func(lo, hi int) { d.run(amps, lo, hi) })
}

// Block applies the gate to amps — 2^b contiguous amplitudes starting at a
// multiple of 2^b, every position of the gate below b — on the calling
// goroutine.
func (d *Dense[T]) Block(amps []T) { d.run(amps, 0, len(amps)>>d.shift) }

// diagRunMin splits a diagonal's positions: those below it vary inside a
// window of 2^diagRunMin amplitudes, the rest are constant across one.
const diagRunMin = 6

// Diagonal is a diagonal gate prepared for states of element type T: each
// amplitude is multiplied by the entry the bits of its index at the gate's
// positions select — the no-communication, no-matvec fast path of gate
// specialization (Sec. 3.5). Those bits are read off the amplitude's index
// in the *whole* state, so positions at or above the piece being multiplied
// (a block of a shard, a shard of a distributed or paged state) simply pick
// the sub-diagonal and no data moves for them.
//
// The piece is cut into units that share a row of one table, picked by the
// bits of the unit's first index at the positions in sel (PEXT). With every
// position at or above diagRunMin a unit is (part of) a run of constant
// entry and a row is that entry; otherwise a unit is a window of
// 2^diagRunMin amplitudes and a row holds an entry per lane, the low
// positions' pattern. Beside each row sits a mask of its entries that are
// not exactly 1, and only those are multiplied: a row of ones, as on most
// of the state for the phase-type diagonals of the supremacy gate set and
// the QFT, is skipped outright, and an amplitude whose entry is 1 keeps its
// bits. One assembly call walks a whole block, or a bounded piece of a
// sweep, with no Go per unit.
type Diagonal[T complexAmp] struct {
	unit, grain int
	sel         int      // the positions that pick a unit's row, as a bit mask
	tbl         []T      // the rows: an entry per unit, or per lane of a window
	masks       []uint64 // per row, its lanes whose entry is not 1
	unity       bool     // every entry is 1
	scale       func(amps []T, dx T)
	// The assembly loop of this machine's width for the form, nil in pure Go.
	kern func(amps *T, base, units, unit, sel int, tbl *T, masks *uint64)
}

// PrepareDiagonal prepares the 2^k entries d on the sorted positions qs for
// pieces of n amplitudes (a power of two); positions at or above log2 n are
// welcome and select among the entries through the base index Sweep and
// Block take.
func PrepareDiagonal[T complexAmp](d []T, qs []int, n int) *Diagonal[T] {
	if len(d) != 1<<len(qs) {
		panic("kernels: diagonal length mismatch")
	}
	p := &Diagonal[T]{unity: true, scale: scaleFor[T]()}
	for _, dx := range d {
		p.unity = p.unity && dx == 1
	}
	var win, run any
	switch any(d).(type) {
	case []complex128:
		win, run = simdDiagWinF64, simdDiagRunF64
		if hasAVX512 {
			win, run = simd512DiagWinF64, simd512DiagRunF64
		}
	case []complex64:
		win, run = simdDiagWinF32, simdDiagRunF32
		if hasAVX512 {
			win, run = simd512DiagWinF32, simd512DiagRunF32
		}
	}
	low, lowMask := 0, 0 // positions below diagRunMin, in pieces that hold a window
	for ; n >= 1<<diagRunMin && low < len(qs) && qs[low] < diagRunMin; low++ {
		lowMask |= 1 << qs[low]
	}
	for _, q := range qs[low:] {
		p.sel |= 1 << q
	}
	// One assembly call multiplies at most simdDiagBlock amplitudes of a
	// sweep (assembly is not preemptible), which also bounds a run's unit.
	p.unit = min(n, simdDiagBlock)
	if len(qs) > 0 {
		p.unit = min(p.unit, 1<<qs[0])
	}
	width := 1 // entries a row holds
	if low > 0 {
		p.unit, width, run = 1<<diagRunMin, 1<<diagRunMin, win
	}
	if hasSIMD {
		p.kern = run.(func(*T, int, int, int, int, *T, *uint64))
	}
	p.tbl, p.masks = make([]T, len(d)>>low*width), make([]uint64, len(d)>>low)
	for x := range p.masks {
		for j := 0; j < width; j++ {
			dx := d[x<<low|pext(j, lowMask)]
			p.tbl[x*width+j] = dx
			if dx != 1 {
				p.masks[x] |= 1 << j
			}
		}
	}
	p.grain = max(1, 8192/p.unit)
	return p
}

// Sweep multiplies the whole piece amps, whose first amplitude has index
// base in the state, spread over par's workers.
func (p *Diagonal[T]) Sweep(amps []T, base int) {
	if p.unity {
		return
	}
	perCall := max(1, simdDiagBlock/p.unit)
	par.For(len(amps)/p.unit, p.grain, func(lo, hi int) {
		for ; lo < hi; lo += perCall {
			p.units(amps, base, lo, min(lo+perCall, hi))
		}
	})
}

// Block is Sweep on the calling goroutine, in one assembly call.
func (p *Diagonal[T]) Block(amps []T, base int) {
	if !p.unity {
		p.units(amps, base, 0, len(amps)/p.unit)
	}
}

// units multiplies units lo…hi−1 of amps.
func (p *Diagonal[T]) units(amps []T, base, lo, hi int) {
	off := lo * p.unit
	if p.kern == nil {
		p.walk(amps[off:hi*p.unit], base+off)
		return
	}
	p.kern(&amps[off], base+off, hi-lo, p.unit, p.sel, &p.tbl[0], &p.masks[0])
}

// walk is the assembly's loop in pure Go, over the same tables, with the
// pure-Go product of scale.
//
//qusim:hot
func (p *Diagonal[T]) walk(amps []T, base int) {
	width := len(p.tbl) / len(p.masks)
	lane := p.unit / width // amplitudes an entry covers
	for off := 0; off < len(amps); off += p.unit {
		x := pext(base+off, p.sel)
		for m := p.masks[x]; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			p.scale(amps[off+j*lane:off+(j+1)*lane], p.tbl[x*width+j])
		}
	}
}

// The scalar multiply of Scale and of the pure-Go diagonal walk, one per
// precision: the assembly's one multiply and one FMA per part where there
// is assembly — the same two instructions the window and run loops issue
// per lane; in pure Go the plain product, and for an entry of −1 (CZ and
// Z-type diagonals) a negation with no multiply. Every route to a product —
// run, window, Scale, a block of a run or a whole sweep — rounds the same.

//qusim:hot
func scaleF64(amps []complex128, dx complex128) {
	switch {
	case hasSIMD:
		simdScaleF64(amps, dx)
	case dx == -1:
		for j := range amps {
			amps[j] = -amps[j]
		}
	default:
		for j := range amps {
			amps[j] *= dx
		}
	}
}

// scaleFor returns the scalar multiply of T's precision.
func scaleFor[T complexAmp]() func(amps []T, dx T) {
	if f, ok := any(scaleF64).(func([]T, T)); ok {
		return f
	}
	return any(scaleF32).(func([]T, T))
}

// scaleF32 is scaleF64 in single precision, on split float32 scalars (the
// compiler's complex64 product is a pack/unpack sequence several times
// slower).
//
//qusim:hot
func scaleF32(amps []complex64, dx complex64) {
	switch {
	case hasSIMD:
		simdScaleF32(amps, dx)
	case dx == -1:
		for j := range amps {
			amps[j] = -amps[j]
		}
	default:
		dxr, dxi := real(dx), imag(dx)
		for j, a := range amps {
			ar, ai := real(a), imag(a)
			amps[j] = complex(ar*dxr-ai*dxi, ai*dxr+ar*dxi)
		}
	}
}

// pext gathers the bits of x under mask into the low bits, in order: what
// BMI2's PEXT computes for the assembly.
func pext(x, mask int) (r int) {
	for j := 0; mask != 0; j, mask = j+1, mask&(mask-1) {
		r |= (x >> bits.TrailingZeros(uint(mask)) & 1) << j
	}
	return r
}

// ApplyDiagonal multiplies each amplitude by the diagonal entry selected by
// the bits of its index at positions qs.
func ApplyDiagonal[T complexAmp](amps, d []T, qs []int) {
	checkDiagonal(len(amps), qs)
	PrepareDiagonal(d, qs, len(amps)).Sweep(amps, 0)
}

// ApplyDiagonalF32 is ApplyDiagonal for a single-precision state.
func ApplyDiagonalF32(amps, d []complex64, qs []int) { ApplyDiagonal(amps, d, qs) }

// checkDiagonal holds a whole state's diagonal to positions inside it: with
// no base index there is nothing above the state for a position to select.
func checkDiagonal(n int, qs []int) {
	if k := len(qs); k > 0 && 1<<qs[k-1] >= n {
		panic(fmt.Sprintf("kernels: qubit position %d out of range for %d amplitudes", qs[k-1], n))
	}
}
