package kernels

import (
	"fmt"

	"qusim/internal/par"
)

// Bit-permutation kernel: the single-pass local qubit relabeling of
// Sec. 3.4. The distributed scheme brackets every global-to-local swap with
// a local permutation that brings the outgoing qubits to the highest-order
// local locations, so permutation speed directly bounds the cost of a
// communication step. Decomposing the permutation into transpositions costs
// up to n−1 full-state sweeps; this kernel compiles the permutation into
// per-byte lookup tables and moves every amplitude to its final index in
// one gather pass.

// BitPermutation is a compiled bit relabeling: Map sends index bit p to bit
// Perm[p]. Compilation folds the per-bit shift masks into one 256-entry
// lookup table per index byte (Map(i) is linear over OR of disjoint bit
// sets, so a whole byte's contribution precomputes into one table entry),
// making an index mapping cost ⌈n/8⌉ L1 loads instead of one mask-shift-or
// per distinct shift distance. The cycle decomposition of the underlying
// permutation is recorded for fast paths and verification.
type BitPermutation struct {
	n      int
	fwd    [][]int // fwd[b][v] = Map contribution of byte b holding value v
	inv    [][]int // inverse-map tables, same layout
	cycles [][]int // non-trivial cycles of the bit positions
}

// CompileBitPermutation validates perm (a permutation of 0…n−1, bit p of
// the input landing at bit perm[p] of the output) and compiles it. It
// panics on malformed input, like the other kernel entry points.
func CompileBitPermutation(perm []int) *BitPermutation {
	n := len(perm)
	if n > 62 {
		panic(fmt.Sprintf("kernels: %d-bit permutation exceeds the 62-bit index limit", n))
	}
	seen := make([]bool, n)
	for _, np := range perm {
		if np < 0 || np >= n || seen[np] {
			panic(fmt.Sprintf("kernels: perm %v is not a permutation of 0…%d", perm, n-1))
		}
		seen[np] = true
	}
	bp := &BitPermutation{n: n}
	bp.fwd = compileByteTables(perm)
	invPerm := make([]int, n)
	for p, np := range perm {
		invPerm[np] = p
	}
	bp.inv = compileByteTables(invPerm)
	// Cycle decomposition (fixed points dropped, each cycle starting at its
	// smallest member — the canonical form the fuzz oracle checks).
	visited := make([]bool, n)
	for p := 0; p < n; p++ {
		if visited[p] || perm[p] == p {
			visited[p] = true
			continue
		}
		var cyc []int
		for q := p; !visited[q]; q = perm[q] {
			visited[q] = true
			cyc = append(cyc, q)
		}
		bp.cycles = append(bp.cycles, cyc)
	}
	return bp
}

// compileByteTables builds the per-byte lookup tables: tab[b][v] is the OR
// of 1<<perm[p] over the set bits p = 8b+j of v's byte placed at bit
// position 8b. Mapping an index is then the OR of one table entry per byte.
func compileByteTables(perm []int) [][]int {
	n := len(perm)
	nb := (n + 7) / 8
	if nb == 0 {
		nb = 1
	}
	tab := make([][]int, nb)
	for b := range tab {
		t := make([]int, 256)
		for v := 1; v < 256; v++ {
			out := 0
			for j := 0; j < 8; j++ {
				if p := 8*b + j; p < n && v&(1<<j) != 0 {
					out |= 1 << perm[p]
				}
			}
			t[v] = out
		}
		tab[b] = t
	}
	return tab
}

// N returns the number of bits the permutation acts on.
func (p *BitPermutation) N() int { return p.n }

// Identity reports whether the permutation fixes every bit.
func (p *BitPermutation) Identity() bool { return len(p.cycles) == 0 }

// Cycles returns the non-trivial cycles of the bit permutation, each
// starting at its smallest member, ordered by that member.
func (p *BitPermutation) Cycles() [][]int { return p.cycles }

// Transposition reports whether the permutation is a single 2-cycle and, if
// so, returns its two positions — the case where an in-place SwapBits sweep
// beats a gather pass (it touches only half the amplitudes).
func (p *BitPermutation) Transposition() (a, b int, ok bool) {
	if len(p.cycles) != 1 || len(p.cycles[0]) != 2 {
		return 0, 0, false
	}
	return p.cycles[0][0], p.cycles[0][1], true
}

// Map returns the permuted index: bit p of i becomes bit perm[p].
func (p *BitPermutation) Map(i int) int {
	return mapTables(p.fwd, i)
}

// MapInverse returns the index that Map sends to i.
func (p *BitPermutation) MapInverse(i int) int {
	return mapTables(p.inv, i)
}

func mapTables(tab [][]int, i int) int {
	out := 0
	for b := range tab {
		out |= tab[b][(i>>(8*b))&0xff]
	}
	return out
}

// permuteTileBits sizes the 2D gather tile: the tile varies the low
// permuteTileBits destination bits AND the destination images of the low
// permuteTileBits source bits, so the tile footprint is ≤ 2^(2·tileBits)
// amplitudes on each side (≤ 512 KiB total at 7 bits — L2-resident) and
// every cache line fetched on either side is fully consumed inside the
// tile.
const permuteTileBits = 7

// permuteTile is the per-worker grain of the gather pass in amplitudes.
const permuteTile = 1 << 15

// PermuteInto writes the permuted state into dst: dst[p.Map(i)] = src[i]
// for every index, executed as a destination-ordered gather
// (dst[y] = src[p.MapInverse(y)]). dst and src must have length 2^n and
// must not alias. This is the single-pass replacement for a SwapBits
// transposition chain: one read of src plus one write of dst, ≤ 2
// full-state passes regardless of the permutation.
//
// For states beyond cache size, destinations are visited tile by tile in an
// order that keeps both y and π⁻¹(y) inside an L2-resident working set: a
// tile varies the low tileBits destination bits (so writes stream and every
// dst line is fully written) together with π(low tileBits source bits) (so
// the gathered reads vary the low source bits and every src line fetched is
// fully read). Without this blocking the gather is latency-bound on random
// reads instead of bandwidth-bound.
//
//qusim:hot
func PermuteInto[T complexAmp](dst, src []T, p *BitPermutation) {
	if len(dst) != len(src) || len(src) != 1<<p.n {
		panic(fmt.Sprintf("kernels: PermuteInto length mismatch: dst %d, src %d, perm 2^%d", len(dst), len(src), p.n))
	}
	inv := p.inv
	n := p.n
	if n <= 2*permuteTileBits+4 {
		// Small state: plain destination-sequential gather (the source side
		// fits low-level caches anyway).
		par.For(len(dst), 1<<14, func(lo, hi int) {
			gatherRange(dst, src, inv, 0, lo, hi)
		})
		return
	}
	// Tile bit set A = low b dst bits ∪ π(low b src bits).
	const b = permuteTileBits
	maskLow := 1<<b - 1
	maskA := maskLow
	for pb := 0; pb < b; pb++ {
		maskA |= mapTables(p.fwd, 1<<pb)
	}
	maskHi := maskA &^ maskLow // tile bits above the contiguous low run
	var freePos []int          // bit positions outside the tile set
	for i := 0; i < n; i++ {
		if maskA&(1<<i) == 0 {
			//qlint:ignore hotalloc once-per-call setup over the n bit positions, not the per-amplitude sweep
			freePos = append(freePos, i)
		}
	}
	tileLen := 1 << popcount(maskA)
	grain := permuteTile / tileLen
	if grain < 1 {
		grain = 1
	}
	par.For(1<<len(freePos), grain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			// k-th tile base: bits of k deposited at the free positions.
			base := 0
			for j, pos := range freePos {
				if k&(1<<j) != 0 {
					base |= 1 << pos
				}
			}
			// Enumerate the subsets of maskHi (ascending), running the
			// contiguous low-bit span for each.
			ahi := 0
			for {
				run := base | ahi
				gatherRange(dst, src, inv, 0, run, run+1<<b)
				ahi = (ahi - maskHi) & maskHi
				if ahi == 0 {
					break
				}
			}
		}
	})
}

// SwapBits exchanges the amplitudes so that bit positions a and b of the
// index are swapped — the SWAP gate as a pure permutation, in place, touching
// half the amplitudes.
//
//qusim:hot
func SwapBits[T complexAmp](amps []T, a, b int) {
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	if a < 0 || 1<<b >= len(amps) {
		panic(fmt.Sprintf("kernels: SwapBits positions %d, %d out of range for %d amplitudes", a, b, len(amps)))
	}
	maskA := 1<<a - 1
	maskB := 1<<b - 1
	sa, sb := 1<<a, 1<<b
	par.For(len(amps)>>2, 1024, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			base := ((t &^ maskA) << 1) | (t & maskA)
			base = ((base &^ maskB) << 1) | (base & maskB)
			i01 := base | sa
			i10 := base | sb
			amps[i01], amps[i10] = amps[i10], amps[i01]
		}
	})
}

// Permute applies p to the 2^n amplitudes in amps and returns the slice that
// holds the result and the one that is now spare: nothing moves for the
// identity, a lone transposition runs in place through SwapBits (half the
// amplitudes, no second vector), and anything else is one PermuteInto gather
// into scratch, which is allocated here when it is nil — so a caller that
// never meets a multi-cycle permutation never pays for a second vector.
func Permute[T complexAmp](amps, scratch []T, p *BitPermutation) (out, spare []T) {
	if p.Identity() {
		return amps, scratch
	}
	if a, b, ok := p.Transposition(); ok {
		SwapBits(amps, a, b)
		return amps, scratch
	}
	if scratch == nil {
		scratch = NewAmps[T](len(amps))
	}
	PermuteInto(scratch, amps, p)
	return scratch, amps
}

// PermuteGather fills dst[t] = src[p.MapInverse(base|t)] for t in
// [0, len(dst)), where len(dst) is a power of two and base has no set bits
// below len(dst). It is the receiver-side unpack of a fused local
// permutation + global swap: each exchanged chunk is gathered through the
// permutation instead of copied, so the permutation costs no state pass of
// its own. Gathers are tiled like PermuteInto, restricted to the destination
// bits that vary within the chunk (images fixed by base cannot be tiled).
// The pass runs serially: callers are the per-rank exchange loops, which are
// already parallel across ranks.
//
//qusim:hot
func PermuteGather(dst, src []complex128, p *BitPermutation, base int) {
	m := len(dst)
	if m == 0 || m&(m-1) != 0 {
		panic("kernels: PermuteGather chunk length must be a power of two")
	}
	if base&(m-1) != 0 {
		panic("kernels: PermuteGather base overlaps the chunk index bits")
	}
	k := 0
	for 1<<k < m {
		k++
	}
	inv := p.inv
	xbase := mapTables(inv, base)
	const b = permuteTileBits
	if k <= b+2 {
		gatherRange(dst, src, inv, xbase, 0, m)
		return
	}
	// Tile bit set A = low b chunk bits ∪ π(low b source bits), keeping only
	// images below k — images at or above k are pinned by base and cannot
	// vary within the chunk.
	maskLow := 1<<b - 1
	maskA := maskLow
	for pb := 0; pb < b; pb++ {
		if img := mapTables(p.fwd, 1<<pb); img < m {
			maskA |= img
		}
	}
	maskHi := maskA &^ maskLow
	var freePos []int
	for i := 0; i < k; i++ {
		if maskA&(1<<i) == 0 {
			//qlint:ignore hotalloc once-per-call setup over the k chunk bits, not the per-amplitude sweep
			freePos = append(freePos, i)
		}
	}
	for kk := 0; kk < 1<<len(freePos); kk++ {
		tbase := 0
		for j, pos := range freePos {
			if kk&(1<<j) != 0 {
				tbase |= 1 << pos
			}
		}
		ahi := 0
		for {
			run := tbase | ahi
			gatherRange(dst, src, inv, xbase, run, run+1<<b)
			ahi = (ahi - maskHi) & maskHi
			if ahi == 0 {
				break
			}
		}
	}
}

// gatherRange executes dst[y] = src[xbase | MapInverse(y)] for y in
// [lo, hi), with the per-byte table lookups unrolled for the common table
// counts. xbase is 0 for a whole-state gather; chunk gathers pass the
// precomputed image of the fixed high bits.
//
//qusim:hot
func gatherRange[T complexAmp](dst, src []T, inv [][]int, xbase, lo, hi int) {
	switch len(inv) {
	case 1:
		t0 := inv[0]
		for y := lo; y < hi; y++ {
			dst[y] = src[xbase|t0[y&0xff]]
		}
	case 2:
		t0, t1 := inv[0], inv[1]
		for y := lo; y < hi; y++ {
			dst[y] = src[xbase|t0[y&0xff]|t1[(y>>8)&0xff]]
		}
	case 3:
		t0, t1, t2 := inv[0], inv[1], inv[2]
		for y := lo; y < hi; y++ {
			dst[y] = src[xbase|t0[y&0xff]|t1[(y>>8)&0xff]|t2[(y>>16)&0xff]]
		}
	case 4:
		t0, t1, t2, t3 := inv[0], inv[1], inv[2], inv[3]
		for y := lo; y < hi; y++ {
			dst[y] = src[xbase|t0[y&0xff]|t1[(y>>8)&0xff]|t2[(y>>16)&0xff]|t3[(y>>24)&0xff]]
		}
	default:
		for y := lo; y < hi; y++ {
			dst[y] = src[xbase|mapTables(inv, y)]
		}
	}
}

func popcount(m int) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}
