package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"qusim/internal/gate"
)

// denseApply is the O(4^n) reference: build the full 2^n matrix via Embed
// and multiply it into the state.
func denseApply(amps []complex128, u gate.Matrix, qs []int, n int) []complex128 {
	full := gate.Embed(u, qs, n)
	d := 1 << n
	out := make([]complex128, d)
	for r := 0; r < d; r++ {
		var acc complex128
		for c := 0; c < d; c++ {
			acc += full.Data[r*d+c] * amps[c]
		}
		out[r] = acc
	}
	return out
}

func randomState(n int, rng *rand.Rand) []complex128 {
	amps := make([]complex128, 1<<n)
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range amps {
		amps[i] *= inv
	}
	return amps
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func sortedSubset(n, k int, rng *rand.Rand) []int {
	qs := rng.Perm(n)[:k]
	sort.Ints(qs)
	return qs
}

func TestAllVariantsMatchDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{6, 9} {
		for k := 1; k <= 5; k++ {
			for trial := 0; trial < 4; trial++ {
				u := gate.RandomUnitary(k, rng)
				qs := sortedSubset(n, k, rng)
				state := randomState(n, rng)
				want := denseApply(state, u, qs, n)
				for _, v := range Variants() {
					got := make([]complex128, len(state))
					copy(got, state)
					got = Apply(v, got, u.Data, qs, nil)
					if d := maxDiff(got, want); d > 1e-10 {
						t.Errorf("n=%d k=%d qs=%v variant=%s: max diff %g", n, k, qs, v, d)
					}
				}
			}
		}
	}
}

func TestGenericFallbackK6(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 8
	u := gate.RandomUnitary(6, rng)
	qs := sortedSubset(n, 6, rng)
	state := randomState(n, rng)
	want := denseApply(state, u, qs, n)
	for _, v := range Variants() {
		got := make([]complex128, len(state))
		copy(got, state)
		got = Apply(v, got, u.Data, qs, nil)
		if d := maxDiff(got, want); d > 1e-10 {
			t.Errorf("k=6 variant=%s: max diff %g", v, d)
		}
	}
}

func TestNormPreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(5)
		k := 1 + r.Intn(4)
		if k > n {
			k = n
		}
		u := gate.RandomUnitary(k, r)
		qs := sortedSubset(n, k, r)
		state := randomState(n, r)
		v := Variants()[r.Intn(len(Variants()))]
		out := Apply(v, state, u.Data, qs, nil)
		var norm float64
		for _, a := range out {
			norm += real(a)*real(a) + imag(a)*imag(a)
		}
		return math.Abs(norm-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHighOrderQubits(t *testing.T) {
	// Gates on the highest-order qubits exercise the large power-of-two
	// strides of Sec. 3.3.
	rng := rand.New(rand.NewSource(24))
	n := 10
	for k := 1; k <= 4; k++ {
		qs := make([]int, k)
		for j := range qs {
			qs[j] = n - k + j
		}
		u := gate.RandomUnitary(k, rng)
		state := randomState(n, rng)
		want := denseApply(state, u, qs, n)
		got := make([]complex128, len(state))
		copy(got, state)
		Apply(Specialized, got, u.Data, qs, nil)
		if d := maxDiff(got, want); d > 1e-10 {
			t.Errorf("high-order k=%d: max diff %g", k, d)
		}
	}
}

func TestExpandInsertsZeros(t *testing.T) {
	qs := []int{1, 3}
	masks := insertMasks(qs)
	// n-k = 2 free bits at positions 0 and 2.
	wants := map[int]int{0: 0, 1: 1, 2: 4, 3: 5}
	for t0, want := range wants {
		if got := expand(t0, masks); got != want {
			t.Errorf("expand(%d) = %d, want %d", t0, got, want)
		}
	}
}

func TestOffsets(t *testing.T) {
	offs := offsets([]int{1, 3})
	want := []int{0, 2, 8, 10}
	for i := range want {
		if offs[i] != want[i] {
			t.Errorf("offsets[%d] = %d, want %d", i, offs[i], want[i])
		}
	}
}

func TestApplyDiagonalMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 8
	for k := 1; k <= 3; k++ {
		u := gate.RandomDiagonal(k, rng)
		qs := sortedSubset(n, k, rng)
		state := randomState(n, rng)
		want := denseApply(state, u, qs, n)
		got := make([]complex128, len(state))
		copy(got, state)
		ApplyDiagonal(got, u.Diagonal(), qs)
		if d := maxDiff(got, want); d > 1e-10 {
			t.Errorf("k=%d: diagonal kernel max diff %g", k, d)
		}
	}
}

// TestApplyDiagonalWindows drives the short-run sweeps — qs[0] below
// diagRunMin, with the top position on either side of diagPeriodMax — in
// both precisions against the per-index definition. Entries include 1
// (skipped) and −1 (negated without a multiply). The SIMD sweep rounds each
// product once less (diagProduct), and is held to that bit for bit in both
// precisions, so a product cannot depend on which sweep reached it.
func TestApplyDiagonalWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	n := diagPeriodMax + 2
	state := randomState(n, rng)
	for _, qs := range [][]int{
		{0, 3, diagPeriodMax - 1}, // one period
		{0, n - 1}, {2, 5, diagPeriodMax}, {0, 1, 2, diagPeriodMax, n - 1},
		{diagRunMin - 1, diagRunMin, n - 2}, {1, 7, 9, 11, n - 1},
		{diagRunMin, n - 1}, // the run path: whole runs of 2^qs[0] amplitudes
	} {
		d := gate.RandomDiagonal(len(qs), rng).Diagonal()
		d[0], d[len(d)-1] = 1, -1
		want := make([]complex128, len(state))
		for i, a := range state {
			x := 0
			for j, q := range qs {
				x |= (i >> q & 1) << j
			}
			want[i] = diagProduct(a, d[x])
		}
		got := append([]complex128(nil), state...)
		ApplyDiagonal(got, d, qs)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("qs=%v: amps[%d] = %v, want %v", qs, i, got[i], want[i])
			}
		}
		got32 := toF32(state)
		ApplyDiagonalF32(got32, ToComplex64(d), qs)
		if diff := maxDiffF32(got32, want); diff > f32Tol {
			t.Errorf("qs=%v: f32 max diff %g", qs, diff)
		}
		if hasSIMD {
			for i, a := range toF32(state) {
				x := 0
				for j, q := range qs {
					x |= (i >> q & 1) << j
				}
				dx := complex64(d[x])
				w := complex(fma32(-imag(dx), imag(a), real(a)*real(dx)), fma32(imag(dx), real(a), imag(a)*real(dx)))
				if got32[i] != w {
					t.Fatalf("qs=%v: f32 amps[%d] = %v, want %v", qs, i, got32[i], w)
				}
			}
		}
	}
}

// diagProduct is a·d as the active diagonal sweep rounds it: the plain
// complex product in pure Go, one multiply and one FMA per part under SIMD.
func diagProduct(a, d complex128) complex128 {
	if !hasSIMD {
		return a * d
	}
	return complex(math.FMA(-imag(d), imag(a), real(a)*real(d)), math.FMA(imag(d), real(a), imag(a)*real(d)))
}

func TestApplyCZMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 7
	state := randomState(n, rng)
	want := denseApply(state, gate.CZ(), []int{2, 5}, n)
	got := make([]complex128, len(state))
	copy(got, state)
	ApplyCZ(got, 2, 5)
	if d := maxDiff(got, want); d > 1e-12 {
		t.Errorf("CZ kernel max diff %g", d)
	}
}

func TestScale(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	state := randomState(5, rng)
	want := make([]complex128, len(state))
	phase := cmplx.Exp(complex(0, 0.77))
	for i := range state {
		want[i] = state[i] * phase
	}
	Scale(state, phase)
	if d := maxDiff(state, want); d > 1e-13 {
		t.Errorf("Scale max diff %g", d)
	}
}

func TestSplitBlockSizesAllCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	n, k := 9, 4
	u := gate.RandomUnitary(k, rng)
	qs := sortedSubset(n, k, rng)
	state := randomState(n, rng)
	want := denseApply(state, u, qs, n)
	old := SetSplitBlock(4)
	defer SetSplitBlock(old)
	for _, b := range []int{1, 2, 3, 4, 8, 16, 32} {
		SetSplitBlock(b)
		got := make([]complex128, len(state))
		copy(got, state)
		Apply(Split, got, u.Data, qs, nil)
		if d := maxDiff(got, want); d > 1e-10 {
			t.Errorf("block=%d: max diff %g", b, d)
		}
	}
}

func TestApplyPanicsOnBadArgs(t *testing.T) {
	amps := make([]complex128, 8)
	u := gate.H()
	for i, fn := range []func(){
		func() { Apply(Specialized, amps, u.Data, []int{3}, nil) },            // out of range
		func() { Apply(Specialized, amps, u.Data, []int{1, 0}, nil) },         // unsorted
		func() { Apply(Specialized, amps, u.Data[:2], []int{0}, nil) },        // short matrix
		func() { Apply(Specialized, amps, gate.CZ().Data, []int{1, 1}, nil) }, // dup
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

func TestTuneSelectsSomething(t *testing.T) {
	res := Tune(3, 10, 1)
	// n=10 keeps every position cache-local, so Tune sweeps one qubit set
	// per k, in both precisions.
	want := 3 * 2 * len(Variants())
	if len(res.Timings) != want {
		t.Fatalf("got %d timings, want %d", len(res.Timings), want)
	}
	for k := 1; k <= 3; k++ {
		v := Selected(k)
		// Auto must now resolve to a concrete variant and produce correct
		// results.
		rng := rand.New(rand.NewSource(29))
		u := gate.RandomUnitary(k, rng)
		state := randomState(8, rng)
		qs := sortedSubset(8, k, rng)
		want := denseApply(state, u, qs, 8)
		got := make([]complex128, len(state))
		copy(got, state)
		got = Apply(Auto, got, u.Data, qs, nil)
		if d := maxDiff(got, want); d > 1e-10 {
			t.Errorf("k=%d tuned variant %s: max diff %g", k, v, d)
		}
	}
}

func TestTuneSplitBlockReturnsValid(t *testing.T) {
	b := TuneSplitBlock(3, 10, 1)
	if b < 1 || b > 8 {
		t.Errorf("TuneSplitBlock returned %d", b)
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{Naive: "naive", InPlace: "inplace", Split: "split", Specialized: "specialized", SIMD: "simd", Auto: "auto"}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("Variant(%d).String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestSetSelectedOverridesTuner(t *testing.T) {
	old := Selected(2)
	SetSelected(2, InPlace)
	t.Cleanup(func() { SetSelected(2, old) })
	if Selected(2) != InPlace {
		t.Error("SetSelected did not take effect")
	}
	// Unknown k defaults to Specialized.
	if Selected(25) != Specialized {
		t.Errorf("Selected(25) = %v, want specialized default", Selected(25))
	}
}

func TestGrainFloorsAtOne(t *testing.T) {
	if grain(20) != 1 {
		t.Errorf("grain(20) = %d, want 1", grain(20))
	}
	if grain(1) != 2048 {
		t.Errorf("grain(1) = %d, want 2048", grain(1))
	}
}
