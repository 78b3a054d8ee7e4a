package kernels

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"qusim/internal/par"
)

// Bit-permutation kernels: the local qubit relabeling of Sec. 3.4. Before a
// global-to-local swap whose outgoing qubits are not yet at the top local
// locations, the scheduler moves them there by disjoint transpositions (one
// pass). A general permutation as one sweep per transposition costs up to
// n−1 half-state sweeps; PermuteInPlace splits it into two involutions
// instead, compiles each into per-byte lookup tables and moves every
// amplitude to its final index in at most two in-place pair-swap passes. It
// is the one permutation kernel: no second buffer is ever needed (DESIGN §7).

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
	bp := &BitPermutation{n: n, fwd: compileByteTables(perm)}
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

func mapTables(tab [][]int, i int) int {
	out := 0
	for b := range tab {
		out |= tab[b][(i>>(8*b))&0xff]
	}
	return out
}

// permuteTileBits sizes the pair-swap tile (pairSwaps): its low span.
const permuteTileBits = 7

// permuteTile is the per-worker grain of a pair-swap pass in amplitudes.
const permuteTile = 1 << 15

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
// what makes every line fetched on either side fully used, and when nothing
// below the low span moves a tile is one run.
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
