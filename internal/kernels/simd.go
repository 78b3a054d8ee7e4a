package kernels

import (
	"math/bits"
	"sort"
)

// The assembly kernels cmd/kernelgen writes — dense k = 1…5 in both
// precisions, at two vector widths from one description: AVX2+FMA on YMM
// registers (simd_amd64.s) and AVX-512 on ZMM registers (simd512_amd64.s).
// This file is their Go half — the chunk-space layout of a position set and
// the matrix expanded in the kernels' access order; cmd/kernelgen/simd.go
// documents the assembly half.
//
// A chunk is one vector register of state — 2 complex128 or 4 complex64 in
// a YMM register, 4 or 8 in a ZMM register — and the SIMD lanes always run
// across base indices, so every amplitude is produced by the same sequence
// of FMAs wherever it sits: the result is bitwise independent of the
// position class, the state or shard size, the worker count and the vector
// width (simd_test.go holds both widths to one math.FMA oracle, and to
// each other).

// ISA names the kernel set this machine runs: "avx512" when the CPU has
// AVX-512 F, DQ, BW and VL beside AVX2, FMA and BMI2 and the OS saves the
// opmask and ZMM state, "avx2" when it has AVX2, FMA and BMI2 and the OS
// saves the YMM state (or the build carries the noavx512 tag), "go"
// otherwise — another architecture, an older CPU, or the purego build tag.
// Nothing else picks a kernel: there is no flag, variable or option, and
// the three sets agree bit for bit in double precision — the "go" set runs
// the assembly's FMAs through math.FMA — while their default plans differ,
// one price list per set (schedule.MeasuredCosts).
func ISA() string {
	switch {
	case hasAVX512:
		return "avx512"
	case hasSIMD:
		return "avx2"
	}
	return "go"
}

// simdMaxK is the widest gate the assembly kernels cover.
const simdMaxK = 5

// simdBlock bounds the lane groups one assembly call sweeps: assembly is
// not preemptible, and a stop-the-world request must not wait for a whole
// pass over the state.
const simdBlock = 1 << 12

// simdDiagBlock bounds, for the same reason, the amplitudes one call of the
// diagonal kernels (a sweep's, Scale's) or of the reductions covers; a
// blocked run's call covers its block.
const simdDiagBlock = 1 << 14

type (
	simdFuncF64 = func(amps *complex128, lo, hi int, masks, offs *int, mat *float64)
	simdFuncF32 = func(amps *complex64, lo, hi int, masks, offs *int, mat *float32)
)

// simdLayout is a position set in chunk space.
type simdLayout struct {
	kernel int   // index into the width's table: the bitmask of the target positions inside a chunk (YMM) or their number (ZMM)
	masks  []int // zero-insertion masks of the k chunk-index bits, ascending; then the one PDEP mask that inserts them all
	offs   []int // byte offset of chunk j from the group's base chunk; then, for a ZMM kernel, its permute index vectors
}

// layoutSIMD maps the sorted positions qs to chunks of 2^laneBits
// amplitudes — YMM registers, or ZMM when zmm is set — for states of at
// least 2^(k+laneBits). The c targets below laneBits stay inside the chunk,
// and the lanes they displace come from the c lowest free positions above
// it: those become the low bits of the chunk index j, below the remaining
// targets, so 2^c consecutive chunks hold the same gate indices for
// different lanes and transpose into gate-index vectors in registers.
func layoutSIMD(qs []int, laneBits int, zmm bool) simdLayout {
	k := len(qs)
	var lay simdLayout
	var lanes, high []int
	class := 0
	for _, q := range qs {
		if q < laneBits {
			class |= 1 << q
		} else {
			high = append(high, q-laneBits)
		}
	}
	for p := 0; len(lanes)+len(high) < k; p++ {
		if i := sort.SearchInts(high, p); i == len(high) || high[i] != p {
			lanes = append(lanes, p)
		}
	}
	chunkBytes := 32
	if zmm {
		chunkBytes = 64
	}
	idx := append(lanes, high...)
	lay.offs = make([]int, 1<<k)
	for j := range lay.offs {
		for i, b := range idx {
			lay.offs[j] |= (j >> i & 1) << b
		}
		lay.offs[j] *= chunkBytes
	}
	sort.Ints(idx)
	lay.masks = insertMasks(idx)
	deposit := -1 // every bit but the k chunk-index bits: PDEP's mask
	for _, b := range idx {
		deposit &^= 1 << b
	}
	lay.masks = append(lay.masks, deposit)
	lay.kernel = class
	if zmm {
		lay.kernel = bits.OnesCount(uint(class))
		for _, t := range qs[:lay.kernel] {
			lay.offs = append(lay.offs, zmmExchange(t, laneBits)...)
		}
	}
	return lay
}

// zmmExchange returns the two VPERMT2PD index vectors (eight 64-bit
// elements each; bit 3 of an index selects the second table) with which a
// ZMM kernel exchanges bit t of the amplitude's place in a chunk of
// 2^laneBits amplitudes with one bit of the register number. Of a register
// pair (lo, hi) the new lo takes, by the first vector over the tables
// (lo, hi), every amplitude whose bit t is clear — lo's where they are,
// hi's into the places with bit t set; the new hi takes those whose bit t
// is set, by the second vector over the tables (hi, old lo). The exchange
// is its own inverse, so the same vectors transpose back before the store.
func zmmExchange(t, laneBits int) []int {
	per := 8 >> laneBits // 64-bit elements per amplitude
	v := make([]int, 16)
	for w := 0; w < 8; w++ {
		e, sub := w/per, w%per
		set := e >> t & 1
		v[w] = set<<3 | (e&^(1<<t))*per + sub
		v[8+w] = (1-set)<<3 | (e|1<<t)*per + sub
	}
	return v
}

// expandMatrix lays m out in the order the kernels read it: per block of
// min(2^k, rows) rows and per column, the block's real parts and then its
// (−imag, imag) pairs — the (mR,mR)/(−mI,mI) operands of Eq. (2)–(3), one
// broadcast each. rows is the number of accumulators the width keeps live:
// every row while they fit in registers, 8 (YMM) or 16 (ZMM) beyond, and 1
// for the pure-Go kernels, whose operands are then (mR, −mI, mI) per entry
// in row-major order. Each entry goes through complex128 and back to F,
// which is exact.
func expandMatrix[C complexAmp, F float32 | float64](m []C, k, rows int) []F {
	dk := 1 << k
	rows = min(dk, rows)
	out := make([]F, 0, 3*len(m))
	for rb := 0; rb < dk; rb += rows {
		for c := 0; c < dk; c++ {
			for r := rb; r < rb+rows; r++ {
				out = append(out, F(real(complex128(m[r*dk+c]))))
			}
			for r := rb; r < rb+rows; r++ {
				im := F(imag(complex128(m[r*dk+c])))
				out = append(out, -im, im)
			}
		}
	}
	return out
}

// prepareSIMD picks the kernel of qs's class at one width — fns is the
// width's table row of k — and lays m out for it; an iteration is one lane
// group, chunks of 2^laneBits amplitudes.
func prepareSIMD[C complexAmp, F float32 | float64](m []C, qs []int, laneBits int, zmm bool,
	fns []func(amps *C, lo, hi int, masks, offs *int, mat *F)) Dense[C] {
	k := len(qs)
	rows := 8
	if zmm {
		rows = 16
	}
	lay := layoutSIMD(qs, laneBits, zmm)
	fn := fns[lay.kernel]
	mat := expandMatrix[C, F](m, k, rows)
	// About 4096 amplitudes per grain, as in the Go kernels.
	return Dense[C]{shift: k + laneBits, grain: max(1, 4096>>(k+laneBits)), run: func(amps []C, lo, hi int) {
		for ; lo < hi; lo += simdBlock {
			fn(&amps[0], lo, min(lo+simdBlock, hi), &lay.masks[0], &lay.offs[0], &mat[0])
		}
	}}
}

// The four kernel tables as prepared gates on k = 1…simdMaxK positions. A
// ZMM kernel needs a state of 2^(k+2) complex128 or 2^(k+3) complex64 to
// fill its lanes, one bit more than the YMM kernel.

func ymmF64(m []complex128, qs []int) Dense[complex128] {
	return prepareSIMD(m, qs, 1, false, simdF64[len(qs)-1][:])
}

func zmmF64(m []complex128, qs []int) Dense[complex128] {
	return prepareSIMD(m, qs, 2, true, simd512F64[len(qs)-1][:])
}

func ymmF32(m []complex64, qs []int) Dense[complex64] {
	return prepareSIMD(m, qs, 2, false, simdF32[len(qs)-1][:])
}

func zmmF32(m []complex64, qs []int) Dense[complex64] {
	return prepareSIMD(m, qs, 3, true, simd512F32[len(qs)-1][:])
}

// simdScaleF64 multiplies the contiguous amplitudes amps by dx, 1 too, with
// the run-form kernel of this machine's width, simdDiagBlock of them a call.
func simdScaleF64(amps []complex128, dx complex128) {
	all := ^uint64(0) // dx and all stay on the stack: the kernels are noescape
	for n := 0; len(amps) > 0; amps = amps[n:] {
		n = min(len(amps), simdDiagBlock)
		if hasAVX512 {
			simd512DiagRunF64(&amps[0], 0, 1, n, 0, &dx, &all)
		} else {
			simdDiagRunF64(&amps[0], 0, 1, n, 0, &dx, &all)
		}
	}
}

// simdScaleF32 is simdScaleF64 in single precision.
func simdScaleF32(amps []complex64, dx complex64) {
	all := ^uint64(0)
	for n := 0; len(amps) > 0; amps = amps[n:] {
		n = min(len(amps), simdDiagBlock)
		if hasAVX512 {
			simd512DiagRunF32(&amps[0], 0, 1, n, 0, &dx, &all)
		} else {
			simdDiagRunF32(&amps[0], 0, 1, n, 0, &dx, &all)
		}
	}
}
