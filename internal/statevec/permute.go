package statevec

import (
	"fmt"

	"qusim/internal/kernels"
)

// Qubit-relabeling kernels. The distributed scheme of Sec. 3.4 swaps
// arbitrary local qubits with the highest-order local qubits before the
// group all-to-all ("we first use our optimized kernels to achieve local
// swaps between highest-index qubits and those to be swapped"); these are
// those local swap kernels.

// SwapBits exchanges the amplitudes so that bit positions a and b of the
// basis index are swapped — the unitary SWAP gate applied as a pure
// permutation (no arithmetic).
func (v *Vector) SwapBits(a, b int) { kernels.SwapBits(v.Amps, a, b) }

// PermuteBits relabels bit position p to perm[p] for every amplitude:
// new index bit perm[p] = old index bit p. perm must be a permutation of
// 0…n−1.
//
// The permutation runs in place, as the two involutions any permutation
// splits into, one pair-swap pass each (kernels.PermuteInPlace): at most two
// reads and two writes of the state however many bits move and no second
// vector, replacing the transposition chain that cost one half-state sweep
// per 2-cycle step. A transposition is one pass over half the amplitudes.
func (v *Vector) PermuteBits(perm []int) {
	if len(perm) != v.N {
		panic(fmt.Sprintf("statevec: PermuteBits got %d entries for n=%d", len(perm), v.N))
	}
	kernels.PermuteInPlace(v.Amps, kernels.CompileBitPermutation(perm))
}

// PermuteBitsSwapChain is the pre-optimization implementation of
// PermuteBits: the permutation decomposed into up to n−1 SwapBits
// transpositions, each a half-state sweep. Kept as the differential
// reference for the in-place kernel (package verify) and as the baseline of
// BenchmarkPermute.
func (v *Vector) PermuteBitsSwapChain(perm []int) {
	if len(perm) != v.N {
		panic(fmt.Sprintf("statevec: PermuteBitsSwapChain got %d entries for n=%d", len(perm), v.N))
	}
	cur := make([]int, v.N) // cur[p] = where original bit p currently lives
	loc := make([]int, v.N) // loc[x] = which original bit lives at position x
	for i := range cur {
		cur[i] = i
		loc[i] = i
	}
	for p := 0; p < v.N; p++ {
		want := perm[p]
		have := cur[p]
		if have == want {
			continue
		}
		// Swap positions have and want; update bookkeeping.
		v.SwapBits(have, want)
		other := loc[want]
		cur[p], cur[other] = want, have
		loc[have], loc[want] = other, p
	}
}

// ReverseBits reverses the significance of all n bit positions (used by the
// QFT example, whose output is bit-reversed): an involution, so one
// in-place pass instead of ⌊n/2⌋ swap sweeps.
func (v *Vector) ReverseBits() {
	perm := make([]int, v.N)
	for i := range perm {
		perm[i] = v.N - 1 - i
	}
	v.PermuteBits(perm)
}
