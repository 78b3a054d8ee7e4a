package kernels

import (
	"math"
	"math/rand"
	"testing"

	"qusim/internal/gate"
	"qusim/internal/harness/refkernel"
)

// f32Tol bounds the deviation of a single-precision kernel from the
// double-precision dense reference on the small states used here: float32
// has ~7 decimal digits, and a handful of fused k≤5 updates stays well
// inside 1e-5.
const f32Tol = 1e-5

func toF32(amps []complex128) []complex64 {
	out := make([]complex64, len(amps))
	for i, a := range amps {
		out[i] = complex64(a)
	}
	return out
}

func maxDiffF32(a []complex64, b []complex128) float64 {
	var m float64
	for i := range a {
		d := complex128(a[i]) - b[i]
		if ad := math.Hypot(real(d), imag(d)); ad > m {
			m = ad
		}
	}
	return m
}

func TestF32VariantsMatchDenseReference(t *testing.T) { kernelTable(t, f32Tol, prepareGo[complex64]) }

func TestF32GenericFallbackK6(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 8
	u := gate.RandomUnitary(6, rng)
	qs := sortedSubset(n, 6, rng)
	state := randomState(n, rng)
	want := denseApply(state, u, qs, n)
	got := toF32(state)
	Apply(got, ToComplex64(u.Data), qs)
	if d := maxDiffF32(got, want); d > f32Tol {
		t.Errorf("k=6: max diff %g", d)
	}
}

// TestF32HighStridePositions exercises strides past L1 on a state the dense
// O(4^n) reference cannot reach; the in-place reference kernel is the
// oracle.
func TestF32HighStridePositions(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 15
	state := randomState(n, rng)
	for _, qs := range [][]int{{13}, {0, 14}, {3, 12, 14}} {
		u := gate.RandomUnitary(len(qs), rng)
		want := append([]complex128(nil), state...)
		refkernel.InPlace(want, u.Data, qs)
		got := toF32(state)
		Apply(got, ToComplex64(u.Data), qs)
		if d := maxDiffF32(got, want); d > f32Tol {
			t.Errorf("qs=%v: max diff %g", qs, d)
		}
	}
}

func TestApplyDiagonalF32(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n := 9
	state := randomState(n, rng)
	for _, qs := range [][]int{{}, {2}, {1, 5}, {0, 3, 7}} {
		k := len(qs)
		d := make([]complex64, 1<<k)
		d128 := make([]complex128, 1<<k)
		for i := range d {
			phi := rng.Float64() * 2 * math.Pi
			d128[i] = complex(math.Cos(phi), math.Sin(phi))
			d[i] = complex64(d128[i])
		}
		want := make([]complex128, len(state))
		for i, a := range state {
			x := 0
			for j, q := range qs {
				x |= (i >> q & 1) << j
			}
			want[i] = a * d128[x]
		}
		got := toF32(state)
		ApplyDiagonalF32(got, d, qs)
		if diff := maxDiffF32(got, want); diff > f32Tol {
			t.Errorf("qs=%v: max diff %g", qs, diff)
		}
	}
}

func TestScaleF32(t *testing.T) {
	amps := []complex64{1, 2i, 3 + 4i}
	Scale(amps, 2i)
	want := []complex64{2i, -4, -8 + 6i}
	for i := range amps {
		if amps[i] != want[i] {
			t.Errorf("amps[%d] = %v, want %v", i, amps[i], want[i])
		}
	}
}

func TestApplyF32PanicsOnBadArgs(t *testing.T) {
	amps := make([]complex64, 8)
	u := ToComplex64(gate.H().Data)
	cz := ToComplex64(gate.CZ().Data)
	for i, fn := range []func(){
		func() { Apply(amps, u, []int{3}) },    // out of range
		func() { Apply(amps, u, []int{1, 0}) }, // unsorted
		func() { Apply(amps, u[:2], []int{0}) },
		func() { Apply(amps, cz, []int{1, 1}) }, // dup
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
