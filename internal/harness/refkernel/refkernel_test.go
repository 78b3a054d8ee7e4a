package refkernel

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestKernelsMatchDefinition holds both kernels to the definition read off
// index by index: out[i] = Σ_c m[r(i), c] · in[i with the bits at qs set to
// c], r(i) the bits of i at qs.
func TestKernelsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 9
	for _, qs := range [][]int{{}, {0}, {8}, {2, 5}, {0, 1, 2}, {1, 4, 6, 8}, {0, 2, 3, 5, 7, 8}} {
		k := len(qs)
		m := make([]complex128, 1<<(2*k))
		for i := range m {
			m[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		in := make([]complex128, 1<<n)
		for i := range in {
			in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := make([]complex128, len(in))
		for i := range want {
			r, rest := 0, i
			for j, q := range qs {
				r |= (i >> q & 1) << j
				rest &^= 1 << q
			}
			for c := 0; c < 1<<k; c++ {
				src := rest
				for j, q := range qs {
					src |= (c >> j & 1) << q
				}
				want[i] += m[r<<k|c] * in[src]
			}
		}
		naive := make([]complex128, len(in))
		Naive(naive, in, m, qs)
		inPlace := append([]complex128(nil), in...)
		InPlace(inPlace, m, qs)
		for i := range want {
			if cmplx.Abs(naive[i]-want[i]) > 1e-12 || inPlace[i] != naive[i] {
				t.Fatalf("qs=%v amps[%d]: naive %v, in-place %v, want %v", qs, i, naive[i], inPlace[i], want[i])
			}
		}
	}
}
