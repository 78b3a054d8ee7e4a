package kernels

import (
	"math/rand"
	"testing"
)

// naiveMap is the bit-by-bit reference for the compiled shift-mask map.
func naiveMap(perm []int, i int) int {
	out := 0
	for p := range perm {
		if i&(1<<p) != 0 {
			out |= 1 << perm[p]
		}
	}
	return out
}

func TestBitPermutationMapMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		perm := rng.Perm(n)
		bp := CompileBitPermutation(perm)
		for i := 0; i < 1<<n; i++ {
			if got, want := bp.Map(i), naiveMap(perm, i); got != want {
				t.Fatalf("perm %v: Map(%d) = %d, want %d", perm, i, got, want)
			}
		}
	}
}

func TestBitPermutationCycles(t *testing.T) {
	bp := CompileBitPermutation([]int{0, 1, 2})
	if !bp.Identity() || len(bp.Cycles()) != 0 {
		t.Errorf("identity permutation reported cycles %v", bp.Cycles())
	}
	// (0 1 2)(3 4)
	bp = CompileBitPermutation([]int{1, 2, 0, 4, 3})
	if got := len(bp.Cycles()); got != 2 {
		t.Errorf("cycle count %d, want 2", got)
	}
}

// TestInvolutionSplit holds the decomposition PermuteInPlace runs on: for
// every permutation of n ≤ 6 positions, π = second∘first, both factors are
// involutions, they move only what π moves, and a cycle of m positions
// contributes at most ⌊m/2⌋ pairs to each.
func TestInvolutionSplit(t *testing.T) {
	var visit func(perm []int, k int)
	check := func(perm []int) {
		bp := CompileBitPermutation(perm)
		first, second := bp.Involutions()
		for q := range perm {
			if got := second[first[q]]; got != perm[q] {
				t.Fatalf("perm %v: second∘first sends %d to %d (first %v, second %v)", perm, q, got, first, second)
			}
			if first[first[q]] != q || second[second[q]] != q {
				t.Fatalf("perm %v: factors %v, %v are not involutions", perm, first, second)
			}
			if perm[q] == q && (first[q] != q || second[q] != q) {
				t.Fatalf("perm %v: fixed position %d moved by %v, %v", perm, q, first, second)
			}
		}
		for _, cyc := range bp.Cycles() {
			for _, inv := range [][]int{first, second} {
				moved := 0
				for _, q := range cyc {
					if inv[q] != q {
						moved++
					}
				}
				if moved/2 > len(cyc)/2 {
					t.Fatalf("perm %v: cycle %v has %d pairs in %v, want ≤ %d", perm, cyc, moved/2, inv, len(cyc)/2)
				}
			}
		}
	}
	visit = func(perm []int, k int) {
		if k == len(perm) {
			check(perm)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			visit(perm, k+1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	for n := 0; n <= 6; n++ {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		visit(perm, 0)
	}
}

// inPlaceCases draws, for n positions, permutations whose lowest moved
// position is 0, 1, 2 (inside a cache line: the tiled single-amplitude and
// short-run paths), one that moves only positions at or above the tile's low
// span, a transposition and an involution of several pairs.
func inPlaceCases(rng *rand.Rand, n int) [][]int {
	above := func(lowest int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		if lowest >= n {
			return perm
		}
		for i, q := range rng.Perm(n - lowest) {
			perm[lowest+i] = lowest + q
		}
		if n-lowest > 1 && perm[lowest] == lowest { // make sure position lowest moves
			perm[lowest], perm[lowest+1] = perm[lowest+1], perm[lowest]
		}
		return perm
	}
	cases := [][]int{rng.Perm(n), above(0), above(1), above(2), above(permuteTileBits + 1)}
	swap := above(n)
	swap[0], swap[n-1] = swap[n-1], swap[0]
	reverse := make([]int, n)
	for i := range reverse {
		reverse[i] = n - 1 - i
	}
	return append(cases, swap, reverse)
}

func testPermuteInPlace[T complexAmp](t *testing.T, mk func(re, im float64) T) {
	rng := rand.New(rand.NewSource(74))
	for n := 1; n <= 20; n++ {
		src := make([]T, 1<<n)
		for i := range src {
			src[i] = mk(float64(i), rng.NormFloat64())
		}
		got := make([]T, len(src))
		for _, perm := range inPlaceCases(rng, n) {
			copy(got, src)
			PermuteInPlace(got, CompileBitPermutation(perm))
			for i, a := range src {
				if got[naiveMap(perm, i)] != a {
					t.Fatalf("n=%d perm %v: amplitude %d not found at Map(%d)", n, perm, i, i)
				}
			}
		}
	}
}

// TestPermuteInPlace holds the in-place kernel to the index-map oracle in
// both element types, n = 1…20: permutations that move position 0, 1 or 2
// and ones that do not.
func TestPermuteInPlace(t *testing.T) {
	t.Run("complex128", func(t *testing.T) {
		testPermuteInPlace(t, func(re, im float64) complex128 { return complex(re, im) })
	})
	t.Run("complex64", func(t *testing.T) {
		testPermuteInPlace(t, func(re, im float64) complex64 { return complex(float32(re), float32(im)) })
	})
}

func TestPermuteGatherRejectsBadArgs(t *testing.T) {
	bp := CompileBitPermutation([]int{1, 0, 2})
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("state shorter than the permutation", func() {
		PermuteInPlace(make([]complex128, 4), bp)
	})
	mustPanic("state longer than the permutation", func() {
		PermuteInPlace(make([]complex128, 16), bp)
	})
	mustPanic("swap position out of range", func() {
		SwapBits(make([]complex128, 8), 0, 3)
	})
}

// permFromBytes decodes fuzz bytes into a permutation via repeated
// Fisher–Yates picks, so every byte string yields a valid permutation.
func permFromBytes(data []byte) []int {
	n := 1 + int(len(data)%16)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i, b := range data {
		j := i % n
		k := int(b) % n
		perm[j], perm[k] = perm[k], perm[j]
	}
	return perm
}

// FuzzBitPermutation checks the compiled shift-mask map and the cycle
// decomposition against bit-by-bit references on arbitrary permutations.
func FuzzBitPermutation(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		perm := permFromBytes(data)
		n := len(perm)
		bp := CompileBitPermutation(perm)
		// The compiled map must agree with the naive per-bit map.
		probe := 1 << n
		if probe > 1<<12 {
			probe = 1 << 12
		}
		for i := 0; i < probe; i++ {
			if bp.Map(i) != naiveMap(perm, i) {
				t.Fatalf("perm %v: Map(%d) = %d, want %d", perm, i, bp.Map(i), naiveMap(perm, i))
			}
		}
		// Replaying the cycles must reconstruct the permutation exactly,
		// and every non-fixed point must appear in exactly one cycle.
		rebuilt := make([]int, n)
		for i := range rebuilt {
			rebuilt[i] = i
		}
		seen := map[int]bool{}
		for _, cyc := range bp.Cycles() {
			if len(cyc) < 2 {
				t.Fatalf("perm %v: trivial cycle %v", perm, cyc)
			}
			for i, p := range cyc {
				if seen[p] {
					t.Fatalf("perm %v: position %d in two cycles", perm, p)
				}
				seen[p] = true
				rebuilt[p] = cyc[(i+1)%len(cyc)]
			}
		}
		for p := range perm {
			if rebuilt[p] != perm[p] {
				t.Fatalf("perm %v: cycles %v rebuild to %v", perm, bp.Cycles(), rebuilt)
			}
		}
		// The in-place kernel must land every amplitude at its mapped index.
		amps := make([]complex64, 1<<n)
		for i := range amps {
			amps[i] = complex(float32(i), 0)
		}
		PermuteInPlace(amps, bp)
		for i := range amps {
			if got := amps[naiveMap(perm, i)]; got != complex(float32(i), 0) {
				t.Fatalf("perm %v: in place, amplitude %d not at Map(%d) (found %v)", perm, i, i, got)
			}
		}
	})
}

// N returns the number of bits the permutation acts on.
func (p *BitPermutation) N() int { return p.n }

// Identity reports whether the permutation fixes every bit.
func (p *BitPermutation) Identity() bool { return len(p.cycles) == 0 }

// Cycles returns the non-trivial cycles of the bit permutation, each
// starting at its smallest member, ordered by that member.
func (p *BitPermutation) Cycles() [][]int { return p.cycles }

// Map returns the permuted index: bit p of i becomes bit perm[p].
func (p *BitPermutation) Map(i int) int {
	return mapTables(p.fwd, i)
}
