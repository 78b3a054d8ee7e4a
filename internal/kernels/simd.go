package kernels

import "sort"

// The AVX2+FMA assembly kernels cmd/kernelgen writes to simd_amd64.s, dense
// k = 1…5 in both precisions. This file is their Go
// half — the chunk-space layout of a position set and the matrix expanded
// in the kernels' access order; cmd/kernelgen/simd.go documents the
// assembly half.
//
// A chunk is one YMM register of state, 2 complex128 or 4 complex64, and
// the SIMD lanes always run across base indices, so every amplitude is
// produced by the same sequence of FMAs wherever it sits: the result is
// bitwise independent of the position class, the state or shard size, and
// the worker count (simd_test.go holds it to a math.FMA oracle).

// ISA names the kernel set this machine runs: "avx2" when the CPU
// has AVX2 and FMA and the OS saves the YMM state, "go" otherwise — another
// architecture, an older CPU, or the purego build tag.
func ISA() string {
	if hasSIMD {
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
// diagonal kernels multiplies: the replayed windows are shorter by
// construction, whole runs and Scale's chunks go through simdScaleF64/F32.
const simdDiagBlock = 1 << 14

type (
	simdFuncF64 = func(amps *complex128, lo, hi int, masks, offs *int, mat *float64)
	simdFuncF32 = func(amps *complex64, lo, hi int, masks, offs *int, mat *float32)
)

// simdLayout is a position set in chunk space.
type simdLayout struct {
	class int   // bitmask of the target positions inside a chunk
	masks []int // zero-insertion masks of the k chunk-index bits, ascending
	offs  []int // byte offset of chunk j from the group's base chunk
}

// layoutSIMD maps the sorted positions qs to chunks of 2^laneBits
// amplitudes, for states of at least 2^(k+laneBits). The c targets
// below laneBits stay inside the chunk, and the lanes they displace come
// from the c lowest free positions above it: those become the low bits of
// the chunk index j, below the remaining targets, so 2^c consecutive chunks
// hold the same gate indices for different lanes and transpose into
// gate-index vectors in registers.
func layoutSIMD(qs []int, laneBits int) simdLayout {
	k := len(qs)
	var lay simdLayout
	var lanes, high []int
	for _, q := range qs {
		if q < laneBits {
			lay.class |= 1 << q
		} else {
			high = append(high, q-laneBits)
		}
	}
	for p := 0; len(lanes)+len(high) < k; p++ {
		if i := sort.SearchInts(high, p); i == len(high) || high[i] != p {
			lanes = append(lanes, p)
		}
	}
	bits := append(lanes, high...)
	lay.offs = make([]int, 1<<k)
	for j := range lay.offs {
		for i, b := range bits {
			lay.offs[j] |= (j >> i & 1) << b
		}
		lay.offs[j] *= 32
	}
	sort.Ints(bits)
	lay.masks = insertMasks(bits)
	return lay
}

// simdRows is the row-block height of the expanded matrix: every row while
// all 2^k accumulators fit in registers, 8 beyond.
func simdRows(k int) int { return min(1<<k, 8) }

// expandMatrix lays m out in the order the kernels read it: per row block
// and column, the block's real parts and then its (−imag, imag) pairs —
// the (mR,mR)/(−mI,mI) operands of Eq. (2)–(3), one broadcast each.
func expandMatrix(m []complex128, k int) []float64 {
	dk, rows := 1<<k, simdRows(k)
	out := make([]float64, 0, 3*len(m))
	for rb := 0; rb < dk; rb += rows {
		for c := 0; c < dk; c++ {
			for r := rb; r < rb+rows; r++ {
				out = append(out, real(m[r*dk+c]))
			}
			for r := rb; r < rb+rows; r++ {
				out = append(out, -imag(m[r*dk+c]), imag(m[r*dk+c]))
			}
		}
	}
	return out
}

// expandMatrixF32 is expandMatrix in single precision.
func expandMatrixF32(m []complex64, k int) []float32 {
	dk, rows := 1<<k, simdRows(k)
	out := make([]float32, 0, 3*len(m))
	for rb := 0; rb < dk; rb += rows {
		for c := 0; c < dk; c++ {
			for r := rb; r < rb+rows; r++ {
				out = append(out, real(m[r*dk+c]))
			}
			for r := rb; r < rb+rows; r++ {
				out = append(out, -imag(m[r*dk+c]), imag(m[r*dk+c]))
			}
		}
	}
	return out
}

// prepareSIMD picks the kernel of qs's class, one of fns, and lays m out
// for it; an iteration is one lane group, chunks of 2^laneBits amplitudes.
func prepareSIMD[C complexAmp, F any](m []C, qs []int, laneBits int,
	fns []func(amps *C, lo, hi int, masks, offs *int, mat *F), expand func(m []C, k int) []F) Dense[C] {
	k := len(qs)
	lay := layoutSIMD(qs, laneBits)
	fn := fns[lay.class]
	mat := expand(m, k)
	// About 4096 amplitudes per grain, as in the Go kernels.
	return Dense[C]{shift: k + laneBits, grain: max(1, 4096>>(k+laneBits)), run: func(amps []C, lo, hi int) {
		for ; lo < hi; lo += simdBlock {
			fn(&amps[0], lo, min(lo+simdBlock, hi), &lay.masks[0], &lay.offs[0], &mat[0])
		}
	}}
}

// simdScaleF64 multiplies the contiguous amplitudes amps by dx with the
// diagonal kernel, simdDiagBlock of them a call.
func simdScaleF64(amps []complex128, dx complex128) {
	var seg diagSegment[complex128] // stays on the stack: the kernel is noescape
	seg.dx = dx
	for ; len(amps) > 0; amps = amps[seg.n:] {
		seg.n = min(len(amps), simdDiagBlock)
		simdDiagF64(&amps[0], &seg, 1)
	}
}

// simdScaleF32 is simdScaleF64 in single precision.
func simdScaleF32(amps []complex64, dx complex64) {
	var seg diagSegment[complex64] // stays on the stack: the kernel is noescape
	seg.dx = dx
	for ; len(amps) > 0; amps = amps[seg.n:] {
		seg.n = min(len(amps), simdDiagBlock)
		simdDiagF32(&amps[0], &seg, 1)
	}
}
