package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"qusim/internal/gate"
	"qusim/internal/harness/refkernel"
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

// fromF64 converts a double-precision state or matrix to element type T.
func fromF64[T complexAmp](a []complex128) []T {
	out := make([]T, len(a))
	for i, v := range a {
		out[i] = T(v)
	}
	return out
}

// kernelTable holds every dense kernel of the package to the two-vector
// reference kernel, k = 0…6, on low, high and mixed positions of a 2^13
// state: the kernel PrepareDense picks on this machine, the pure-Go kernels
// (and past k = 5 their general-k loop) called directly, so that an AVX
// host executes them too, and the general-k kernel at every k.
// Each is also run through Block, which must land where Sweep does bit for
// bit.
func kernelTable[T complexAmp](t *testing.T, tol float64, pureGo func(m []T, qs []int) Dense[T]) {
	rng := rand.New(rand.NewSource(21))
	const n = 13
	state := randomState(n, rng)
	for k := 0; k <= 6; k++ {
		low, high, mixed := make([]int, k), make([]int, k), make([]int, k)
		for j := 0; j < k; j++ {
			low[j], high[j], mixed[j] = j, n-k+j, 2*j+j/4
		}
		for name, qs := range map[string][]int{"low": low, "high": high, "mixed": mixed} {
			u := gate.RandomUnitary(k, rng)
			want := make([]complex128, len(state))
			refkernel.Naive(want, state, u.Data, qs)
			m := fromF64[T](u.Data)
			for kernel, d := range map[string]Dense[T]{
				"platform": PrepareDense(m, qs, len(state)),
				"go":       pureGo(m, qs),
				"general":  PrepareGeneral(m, qs, len(state)),
			} {
				got, blocked := fromF64[T](state), fromF64[T](state)
				d.Sweep(got)
				d.Block(blocked)
				var diff float64
				for i := range got {
					diff = max(diff, cmplx.Abs(complex128(got[i])-want[i]))
					if got[i] != blocked[i] {
						t.Fatalf("%s k=%d %s %v: Block gives amps[%d] = %v, Sweep %v", kernel, k, name, qs, i, blocked[i], got[i])
					}
				}
				if diff > tol {
					t.Errorf("%s k=%d %s %v: max diff %g from the reference kernel", kernel, k, name, qs, diff)
				}
			}
		}
	}
}

func TestAllVariantsMatchDenseReference(t *testing.T) { kernelTable(t, 1e-10, prepareGo[complex128]) }

func TestGenericFallbackK6(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 8
	u := gate.RandomUnitary(6, rng)
	qs := sortedSubset(n, 6, rng)
	state := randomState(n, rng)
	want := denseApply(state, u, qs, n)
	Apply(state, u.Data, qs)
	if d := maxDiff(state, want); d > 1e-10 {
		t.Errorf("k=6: max diff %g", d)
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
		Apply(state, u.Data, qs)
		return math.Abs(Norm(state)-1) < 1e-9
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
		Apply(state, u.Data, qs)
		if d := maxDiff(state, want); d > 1e-10 {
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

// TestApplyDiagonalWindows drives the window form — qs[0] below
// diagRunMin, with and without positions that pick a window's row — in
// both precisions against the per-index definition. Entries include 1
// (skipped) and −1. Every sweep rounds each product as diagProduct does,
// and is held to that bit for bit in both precisions, so a product cannot
// depend on which sweep reached it.
func TestApplyDiagonalWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	n := 12
	state := randomState(n, rng)
	for _, qs := range [][]int{
		{0, 3, 5}, // inside a window
		{0, n - 1}, {2, 5, 9}, {0, 1, 2, 9, n - 1},
		{diagRunMin - 1, diagRunMin, n - 2}, {1, 7, 9, n - 1},
		{diagRunMin, n - 1}, // the run form: whole runs of 2^qs[0] amplitudes
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
		for i, a := range toF32(state) {
			x := 0
			for j, q := range qs {
				x |= (i >> q & 1) << j
			}
			if w := diagProduct32(a, complex64(d[x]), hasSIMD); got32[i] != w {
				t.Fatalf("qs=%v: f32 amps[%d] = %v, want %v", qs, i, got32[i], w)
			}
		}
	}
}

// diagProduct is a·d as every diagonal sweep rounds it: one multiply and
// one FMA per part.
func diagProduct(a, d complex128) complex128 {
	return complex(math.FMA(-imag(d), imag(a), real(a)*real(d)), math.FMA(imag(d), real(a), imag(a)*real(d)))
}

// diagProduct32 is diagProduct in single precision: the same two operations
// in float32 on the assembly (simd), and in pure Go diagProduct on the
// widened operands, rounded once per part — the float32 FMA evaluated
// through float64, which rounds twice.
func diagProduct32(a, d complex64, simd bool) complex64 {
	if simd {
		return complex(fma32(-imag(d), imag(a), real(a)*real(d)), fma32(imag(d), real(a), imag(a)*real(d)))
	}
	return complex64(diagProduct(complex128(a), complex128(d)))
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

func TestApplyPanicsOnBadArgs(t *testing.T) {
	amps := make([]complex128, 8)
	u := gate.H()
	for i, fn := range []func(){
		func() { Apply(amps, u.Data, []int{3}) },            // out of range
		func() { Apply(amps, u.Data, []int{1, 0}) },         // unsorted
		func() { Apply(amps, u.Data[:2], []int{0}) },        // short matrix
		func() { Apply(amps, gate.CZ().Data, []int{1, 1}) }, // dup
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

// TestTuneTimesEveryK: one timing per k, in order, each a sweep counted by
// TimingSweeps, on positions that are valid however small the state; a
// state narrower than kmax stops at its width.
func TestTuneTimesEveryK(t *testing.T) {
	before := TimingSweeps()
	res := Tune(3, 10, 1)
	if res.N != 10 || len(res.Timings) != 3 || TimingSweeps() != before+3 {
		t.Fatalf("Tune(3, 10, 1) = %+v after %d sweeps, want 3 timings on 2^10", res, TimingSweeps()-before)
	}
	for i, tm := range res.Timings {
		if tm.K != i+1 || tm.NsPerApply < 0 {
			t.Errorf("timing %d is %+v", i, tm)
		}
	}
	if got := len(Tune(5, 3, 1).Timings); got != 3 {
		t.Errorf("Tune(5, 3, 1) took %d timings, want 3", got)
	}
	for n := 1; n <= 26; n++ {
		for k := 1; k <= min(n, 5); k++ {
			qs := tunePositions(n, k)
			checkArgs(1<<n, make([]complex128, 1<<(2*k)), qs) // panics on unsorted or out of range
		}
	}
	if got := tunePositions(26, 5); !slices.Equal(got, []int{6, 9, 12, 15, 18}) {
		t.Errorf("tunePositions(26, 5) = %v, want the positions of BenchmarkKernelPrecision", got)
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
