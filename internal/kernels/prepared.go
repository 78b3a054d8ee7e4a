package kernels

import (
	"fmt"

	"qusim/internal/par"
)

// Prepared ops. What a gate costs before its first amplitude moves — picking
// the kernel, the chunk-space layout and the matrix in the kernel's
// operand order for a dense gate; the compiled window segments or the run
// table for a diagonal — depends on the gate and its positions only, not on
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

// diagRunMin and diagPeriodMax pick between the diagonal sweeps: runs of at
// least 2^diagRunMin amplitudes amortize the per-run entry lookup; below
// that the windowed replay takes over, over the pattern's whole period as
// long as that is at most 2^diagPeriodMax amplitudes and over
// 2^diagRunMin-amplitude windows beyond. A window's table can be as large as
// the window (32 bytes a segment, a segment as short as one amplitude), and
// a prepared diagonal lives as long as its stage's program — the tables of a
// whole run share the L2 with the block they multiply — so the period form
// stops at 8 KiB: at 2^13 the programs of the eight ranks of a QFT(23) held
// 13 MiB of tables and a 26-diagonal run went no faster blocked than op by
// op; at 2^9, 2.6 MiB and 1.6× faster.
const (
	diagRunMin    = 6
	diagPeriodMax = 9
)

// diagSegment is one maximal run of identical non-unit diagonal entries
// within a period of the index pattern. simdDiagF64 and simdDiagF32 read
// the fields by offset: the layout is part of cmd/kernelgen's contract.
type diagSegment[T complexAmp] struct {
	off, n int
	dx     T
}

// Diagonal is a diagonal gate prepared for states of element type T: each
// amplitude is multiplied by the entry the bits of its index at the gate's
// positions select — the no-communication, no-matvec fast path of gate
// specialization (Sec. 3.5). Those bits are read off the amplitude's index
// in the *whole* state, so positions at or above the piece being multiplied
// (a block of a shard, a shard of a distributed or paged state) simply pick
// the sub-diagonal and no data moves for them.
//
// The piece is cut into units that share one lookup. With the lowest
// position at or above diagRunMin a unit is (part of) a run of constant
// entry, multiplied by it or — the entry being exactly 1, as on most of the
// state for the phase-type diagonals of the supremacy gate set and the QFT —
// skipped outright. Below that, per-run dispatch would dominate: a unit is a
// window of the index pattern whose non-unit segments were compiled once
// and are replayed, with no per-index bit extraction and no visit to an
// index whose entry is 1.
type Diagonal[T complexAmp] struct {
	unit, grain int
	sel         []int // positions constant across a unit: their bits pick its entry or segments
	d           []T   // run form: the entry per value of the sel bits
	segs        [][]diagSegment[T]
	unity       bool // every entry is 1
	scale       func(amps []T, dx T)
	replay      func(amps []T, segs []diagSegment[T])
}

// PrepareDiagonal prepares the 2^k entries d on the sorted positions qs for
// pieces of n amplitudes (a power of two); positions at or above log2 n are
// welcome and select among the entries through the base index Sweep and
// Block take.
func PrepareDiagonal[T complexAmp](d []T, qs []int, n int) *Diagonal[T] {
	if len(d) != 1<<len(qs) {
		panic("kernels: diagonal length mismatch")
	}
	p := &Diagonal[T]{unity: true}
	for _, dx := range d {
		p.unity = p.unity && dx == 1
	}
	switch any(d).(type) {
	case []complex128:
		p.scale, p.replay = any(scaleF64).(func([]T, T)), any(replayF64).(func([]T, []diagSegment[T]))
	case []complex64:
		p.scale, p.replay = any(scaleF32).(func([]T, T)), any(replayF32).(func([]T, []diagSegment[T]))
	}
	in := 0 // positions that vary inside a piece
	for in < len(qs) && 1<<qs[in] < n {
		in++
	}
	if in == 0 || qs[0] >= diagRunMin {
		// One assembly call multiplies at most simdDiagBlock amplitudes
		// (assembly is not preemptible), which also bounds the unit.
		p.unit = min(n, simdDiagBlock)
		if in > 0 {
			p.unit = min(p.unit, 1<<qs[0])
		}
		p.grain, p.sel, p.d = max(1, 4096/p.unit), qs, d
		return p
	}
	lo, window := diagWindow(qs[:in], n)
	p.unit, p.grain, p.sel = window, max(1, 8192/window), qs[lo:]
	if !p.unity {
		p.segs = make([][]diagSegment[T], 1<<len(p.sel))
		for x := range p.segs {
			p.segs[x] = diagSegments(d[x<<lo:(x+1)<<lo], qs[:lo], window)
		}
	}
	return p
}

// Sweep multiplies the whole piece amps, whose first amplitude has index
// base in the state, spread over par's workers.
func (p *Diagonal[T]) Sweep(amps []T, base int) {
	if p.unity {
		return
	}
	par.For(len(amps)/p.unit, p.grain, func(lo, hi int) { p.run(amps, base, lo, hi) })
}

// Block is Sweep on the calling goroutine.
func (p *Diagonal[T]) Block(amps []T, base int) {
	if !p.unity {
		p.run(amps, base, 0, len(amps)/p.unit)
	}
}

// run multiplies units lo…hi−1 of amps.
//
//qusim:hot
func (p *Diagonal[T]) run(amps []T, base, lo, hi int) {
	for u := lo; u < hi; u++ {
		off := u * p.unit
		x := 0
		for j, q := range p.sel {
			x |= ((base + off) >> q & 1) << j
		}
		if p.segs != nil {
			if s := p.segs[x]; len(s) > 0 {
				p.replay(amps[off:off+p.unit], s)
			}
		} else if dx := p.d[x]; dx != 1 {
			p.scale(amps[off:off+p.unit:off+p.unit], dx)
		}
	}
}

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

// The scalar multiply under every diagonal sweep and Scale, one per
// precision: the assembly's one multiply and one FMA per part where there
// is assembly; in pure Go the plain product, and for an entry of −1 (CZ and
// Z-type diagonals) a negation with no multiply. Every route to a product —
// run, window, Scale, a block of a run or a whole sweep — ends here, so it
// cannot round differently between them.

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

// replayF64 multiplies the compiled segments of one window.
func replayF64(amps []complex128, segs []diagSegment[complex128]) {
	if hasSIMD {
		simdReplayF64(&amps[0], &segs[0], len(segs))
		return
	}
	for _, s := range segs {
		scaleF64(amps[s.off:s.off+s.n], s.dx)
	}
}

// replayF32 is replayF64 in single precision.
func replayF32(amps []complex64, segs []diagSegment[complex64]) {
	if hasSIMD {
		simdReplayF32(&amps[0], &segs[0], len(segs))
		return
	}
	for _, s := range segs {
		scaleF32(amps[s.off:s.off+s.n], s.dx)
	}
}

// ApplyDiagonal multiplies each amplitude by the diagonal entry selected by
// the bits of its index at positions qs.
func ApplyDiagonal(amps []complex128, d []complex128, qs []int) {
	checkDiagonal(len(amps), qs)
	PrepareDiagonal(d, qs, len(amps)).Sweep(amps, 0)
}

// ApplyDiagonalF32 is ApplyDiagonal for a single-precision state.
func ApplyDiagonalF32(amps []complex64, d []complex64, qs []int) {
	checkDiagonal(len(amps), qs)
	PrepareDiagonal(d, qs, len(amps)).Sweep(amps, 0)
}

// checkDiagonal holds a whole state's diagonal to positions inside it: with
// no base index there is nothing above the state for a position to select.
func checkDiagonal(n int, qs []int) {
	if k := len(qs); k > 0 && 1<<qs[k-1] >= n {
		panic(fmt.Sprintf("kernels: qubit position %d out of range for %d amplitudes", qs[k-1], n))
	}
}
