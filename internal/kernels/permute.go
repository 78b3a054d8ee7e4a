package kernels

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"qusim/internal/par"
)

// Bit-permutation kernels: the local qubit relabeling of Sec. 3.4. The
// distributed scheme brackets every global-to-local swap with a local
// permutation that brings the outgoing qubits to the highest-order local
// locations, so permutation speed directly bounds the cost of a
// communication step. Decomposing the permutation into transpositions costs
// up to n−1 half-state sweeps; these kernels compile it into per-byte lookup
// tables and move every amplitude to its final index in at most two in-place
// passes (PermuteInPlace) or, given a second buffer, in one gather pass
// (PermuteInto).

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
	tileLen := 1 << bits.OnesCount(uint(maskA))
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

// Involutions splits the permutation into two involutions of the bit
// positions, π[p] = second[first[p]]: per cycle c₀ → c₁ → … → c_{m−1} → c₀
// the reflections c_i ↔ c_{−i} and then c_i ↔ c_{1−i} (indices mod m), whose
// product is the rotation c_i → c_{i+1}. An involution is a set of disjoint
// position pairs, at most ⌊m/2⌋ per cycle — what one in-place pass can
// execute. A transposition's first involution is the identity.
func (p *BitPermutation) Involutions() (first, second []int) {
	first, second = make([]int, p.n), make([]int, p.n)
	for q := range first {
		first[q], second[q] = q, q
	}
	for _, c := range p.cycles {
		m := len(c)
		for i := range c {
			first[c[i]] = c[(m-i)%m]
			second[c[i]] = c[(m+1-i)%m]
		}
	}
	return first, second
}

// PermuteInPlace applies p to the 2^n amplitudes where they lie:
// amps[p.Map(i)] afterwards holds what amps[i] held. The permutation runs as
// its two involutions, one pair-swap pass each, so no second vector exists,
// every amplitude is read and written at most twice however many bits move,
// and an involution (a transposition, a bit reversal) is one pass.
func PermuteInPlace[T complexAmp](amps []T, p *BitPermutation) {
	if len(amps) != 1<<p.n {
		panic(fmt.Sprintf("kernels: PermuteInPlace got %d amplitudes for a permutation of 2^%d", len(amps), p.n))
	}
	first, second := p.Involutions()
	swapPass(amps, compileSwapPass(first))
	swapPass(amps, compileSwapPass(second))
}

// SwapBits exchanges the amplitudes so that bit positions a and b of the
// index are swapped — the SWAP gate as a pure permutation, in place, touching
// half the amplitudes: the one-pair case of the pair-swap pass.
func SwapBits[T complexAmp](amps []T, a, b int) {
	n := bits.Len(uint(len(amps))) - 1
	if a < 0 || b < 0 || a >= n || b >= n {
		panic(fmt.Sprintf("kernels: SwapBits positions %d, %d out of range for %d amplitudes", a, b, len(amps)))
	}
	sigma := make([]int, n)
	for q := range sigma {
		sigma[q] = q
	}
	sigma[a], sigma[b] = b, a
	swapPass(amps, compileSwapPass(sigma))
}

// pairSwaps is an involution σ of the bit positions compiled for the
// pair-swap pass. The tile bit set A = low bits ∪ σ(low bits) is mapped onto
// itself by σ, so the indices that agree outside A form a tile of 2^|A|
// amplitudes (≤ 2^(2·permuteTileBits), L2-resident with its partner) that σ
// sends whole onto the tile at σ(u). Inside a tile amplitudes move in runs of
// 2^(lowest moved position); when that is inside a cache line the tile is
// what makes every line fetched on either side fully used, as in PermuteInto,
// and when nothing below the low span moves a tile is one run.
type pairSwaps struct {
	tab      [][]int // σ on indices, one lookup table per index byte
	low      int     // amplitudes in the contiguous low span of a tile
	run      int     // amplitudes that move together: 1<<lowest moved position, ≤ low
	maskHi   int     // tile bits above the low span: where σ sends low bits
	maskFree int     // bit positions outside the tile set
}

// permuteRunBits caps a run (32 KiB of complex128): the index arithmetic per
// run is nothing, and a swap of two high positions still splits across workers.
const permuteRunBits = 11

// compileSwapPass compiles the involution sigma; nil for the identity.
func compileSwapPass(sigma []int) *pairSwaps {
	n := len(sigma)
	lowest := 0
	for lowest < n && sigma[lowest] == lowest {
		lowest++
	}
	if lowest == n {
		return nil
	}
	ps := &pairSwaps{tab: compileByteTables(sigma)}
	ps.run = 1 << min(lowest, permuteRunBits)
	ps.low = max(ps.run, 1<<min(permuteTileBits, n))
	maskA := (ps.low - 1) | mapTables(ps.tab, ps.low-1)
	ps.maskHi = maskA &^ (ps.low - 1)
	ps.maskFree = (1<<n - 1) &^ maskA
	return ps
}

// swapPass executes one involution in place: every index pair {i, σ(i)}
// trades amplitudes once, handled from its smaller tile. Tiles are dealt off
// a shared counter, not in par's static halves: the high free bits decide
// which of u and σ(u) is the smaller, so a static split would leave one
// worker the swaps and the other the skips.
//
//qusim:hot
func swapPass[T complexAmp](amps []T, ps *pairSwaps) {
	if ps == nil {
		return
	}
	tiles := 1 << bits.OnesCount(uint(ps.maskFree))
	grain := max(1, permuteTile/(ps.low<<bits.OnesCount(uint(ps.maskHi))))
	var next atomic.Int64
	par.For(tiles, grain, func(_, _ int) {
		for {
			hi := int(next.Add(int64(grain)))
			if hi-grain >= tiles {
				return
			}
			// The block's first tile: its number deposited at the free
			// positions; the following ones by counting inside the mask.
			u := 0
			for k, m := hi-grain, ps.maskFree; m != 0; k, m = k>>1, m&(m-1) {
				u |= (k & 1) * (m & -m)
			}
			for k := hi - grain; k < min(hi, tiles); k++ {
				if v := mapTables(ps.tab, u); u <= v {
					swapTiles(amps, ps, u, v)
				}
				u = (u - ps.maskFree) & ps.maskFree
			}
		}
	})
}

// swapTiles trades the tile at u with its image, the tile at v = σ(u) ≥ u:
// the amplitude at u|a and the one at v|σ(a) change places. When the tile is
// its own image (u == v) each pair inside it is taken from its smaller index.
//
//qusim:hot
func swapTiles[T complexAmp](amps []T, ps *pairSwaps, u, v int) {
	t0, run := ps.tab[0], ps.run
	ahi := 0
	for {
		x0 := u | ahi
		y0 := v | mapTables(ps.tab, ahi) // σ sends the high tile bits below ps.low
		for lo := 0; lo < ps.low; lo += run {
			x, y := x0|lo, y0|t0[lo]
			if u == v && x >= y {
				continue
			}
			if run == 1 {
				amps[x], amps[y] = amps[y], amps[x]
				continue
			}
			a, b := amps[x:x+run], amps[y:y+run]
			for i := range a {
				a[i], b[i] = b[i], a[i]
			}
		}
		ahi = (ahi - ps.maskHi) & ps.maskHi
		if ahi == 0 {
			return
		}
	}
}

// Permute applies p to amps and returns the slice that holds the result and
// the one that is now spare: in place when scratch is nil (or p is the
// identity or a transposition), else one PermuteInto gather into scratch, the
// spare buffer of len(amps) a caller holds anyway.
func Permute[T complexAmp](amps, scratch []T, p *BitPermutation) (out, spare []T) {
	if _, _, ok := p.Transposition(); scratch == nil || ok || p.Identity() {
		PermuteInPlace(amps, p)
		return amps, scratch
	}
	PermuteInto(scratch, amps, p)
	return scratch, amps
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
