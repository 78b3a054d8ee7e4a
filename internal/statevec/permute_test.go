package statevec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qusim/internal/gate"
)

func TestSwapBitsMatchesSwapGate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(4)
		a := rng.Intn(n)
		b := rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		v := randomVector(n, rng)
		w := v.Clone()
		v.SwapBits(a, b)
		w.ApplyDense(gate.Swap(), a, b)
		if d := v.MaxDiff(w); d > 1e-12 {
			t.Errorf("n=%d swap(%d,%d): max diff %g", n, a, b, d)
		}
	}
}

func TestSwapBitsSelfIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	v := randomVector(5, rng)
	w := v.Clone()
	v.SwapBits(2, 2)
	if d := v.MaxDiff(w); d != 0 {
		t.Errorf("SwapBits(q,q) changed the state: %g", d)
	}
}

func TestPermuteBitsExplicit(t *testing.T) {
	// Move bit 0 → 2, 1 → 0, 2 → 1 on a basis state.
	v := New(3)
	v.Amps[0] = 0
	v.Amps[0b011] = 1 // bits 0 and 1 set
	v.PermuteBits([]int{2, 0, 1})
	// Old bit 0 (set) → position 2; old bit 1 (set) → position 0; old bit 2
	// (clear) → position 1. New index: 0b101.
	if v.Amplitude(0b101) != 1 {
		t.Errorf("PermuteBits: expected amplitude at 0b101, state: %v", v.Amps)
	}
}

func TestPermuteBitsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		perm := rng.Perm(n)
		v := randomVector(n, rng)
		w := v.Clone()
		v.PermuteBits(perm)
		// Reference: reindex explicitly.
		ref := make([]complex128, len(w.Amps))
		for old := range w.Amps {
			nw := 0
			for p := 0; p < n; p++ {
				if old&(1<<p) != 0 {
					nw |= 1 << perm[p]
				}
			}
			ref[nw] = w.Amps[old]
		}
		for i := range ref {
			if ref[i] != v.Amps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPermuteBitsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	v := randomVector(6, rng)
	w := v.Clone()
	v.PermuteBits([]int{0, 1, 2, 3, 4, 5})
	if d := v.MaxDiff(w); d != 0 {
		t.Errorf("identity permutation changed state: %g", d)
	}
}

func TestReverseBits(t *testing.T) {
	v := New(3)
	v.Amps[0] = 0
	v.Amps[0b001] = 1
	v.ReverseBits()
	if v.Amplitude(0b100) != 1 {
		t.Errorf("ReverseBits: expected amplitude at 0b100")
	}
}

func TestPermuteBitsMatchesSwapChain(t *testing.T) {
	// The in-place kernel and the transposition-chain reference
	// must agree exactly (both are pure relabelings — no arithmetic).
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(9)
		perm := rng.Perm(n)
		v := randomVector(n, rng)
		w := v.Clone()
		v.PermuteBits(perm)
		w.PermuteBitsSwapChain(perm)
		for i := range v.Amps {
			if v.Amps[i] != w.Amps[i] {
				t.Fatalf("trial %d n=%d perm=%v: kernels disagree at index %d", trial, n, perm, i)
			}
		}
	}
}

func TestPermuteBitsComposes(t *testing.T) {
	// PermuteBits(p2 ∘ p1) = PermuteBits(p1); PermuteBits(p2) — the layout
	// tracking in the distributed engine and the verify backend depends on
	// this composition law.
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6)
		p1, p2 := rng.Perm(n), rng.Perm(n)
		comp := make([]int, n)
		for i := range comp {
			comp[i] = p2[p1[i]]
		}
		v := randomVector(n, rng)
		w := v.Clone()
		v.PermuteBits(p1)
		v.PermuteBits(p2)
		w.PermuteBits(comp)
		if d := v.MaxDiff(w); d != 0 {
			t.Errorf("trial %d: composition broken: %g", trial, d)
		}
	}
}

func TestGateCommutesWithPermutation(t *testing.T) {
	// Applying U to qubit q then permuting equals permuting then applying U
	// to perm[q] — the core invariant the distributed qubit remapping
	// relies on.
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		n := 5
		perm := rng.Perm(n)
		q := rng.Intn(n)
		u := gate.RandomUnitary(1, rng)
		v := randomVector(n, rng)
		w := v.Clone()

		v.Apply(u, q)
		v.PermuteBits(perm)

		w.PermuteBits(perm)
		w.Apply(u, perm[q])

		if d := v.MaxDiff(w); d > 1e-10 {
			t.Errorf("trial %d: gate/permutation commutation broken: %g", trial, d)
		}
	}
}
