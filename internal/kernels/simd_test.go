package kernels

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"qusim/internal/gate"
	"qusim/internal/par"
)

// The oracle of the assembly kernels: the same gate applied one base index at a
// time in pure Go, with math.FMA in the assembly's exact operation order —
// per output row an accumulator pair starting at +0 and, column by column,
//
//	re = fma(mR, aRe, re); im = fma(mR, aIm, im)
//	re = fma(−mI, aIm, re); im = fma(mI, aRe, im).
//
// An FMA rounds once, so the SIMD result must equal this bit for bit,
// whatever the position class, state size or worker count.

// fma32 is the correctly rounded float32 x·y + z. The product is exact in
// float64; the sum is rounded to odd there (Boldo & Melquiond), which makes
// the final rounding to float32 the only one that counts.
func fma32(x, y, z float32) float32 {
	p, c := float64(x)*float64(y), float64(z)
	s := p + c
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return float32(s) // an operand was not finite: no rounding to correct
	}
	bb := s - p
	err := (p - (s - bb)) + (c - bb) // TwoSum: s + err == p + c exactly
	if err != 0 && math.Float64bits(s)&1 == 0 {
		if (err > 0) == (s > 0) {
			s = math.Float64frombits(math.Float64bits(s) + 1)
		} else {
			s = math.Float64frombits(math.Float64bits(s) - 1)
		}
	}
	return float32(s)
}

func TestFMA32(t *testing.T) {
	// (1+2^-12)² = 1 + 2^-11 + 2^-24 is a float32 tie: a tiny addend must
	// break it either way, which rounding through float64 gets wrong.
	x, tiny := float32(1+math.Ldexp(1, -12)), float32(math.Ldexp(1, -80))
	down := float32(1 + math.Ldexp(1, -11))
	if up := down + float32(math.Ldexp(1, -23)); fma32(x, x, tiny) != up || fma32(x, x, -tiny) != down {
		t.Errorf("fma32 tie: %b and %b, want %b and %b", fma32(x, x, tiny), fma32(x, x, -tiny), up, down)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a, b, c := float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())
		exact := new(big.Float).SetPrec(1000).SetFloat64(float64(a))
		exact.Mul(exact, big.NewFloat(float64(b))).Add(exact, big.NewFloat(float64(c)))
		if want, _ := exact.Float32(); fma32(a, b, c) != want {
			t.Fatalf("fma32(%v, %v, %v) = %v, want %v", a, b, c, fma32(a, b, c), want)
		}
	}
}

// oracleApply is Apply by the oracle's arithmetic.
func oracleApply(amps, m []complex128, qs []int) {
	k := len(qs)
	dk := 1 << k
	masks, offs := insertMasks(qs), offsets(qs)
	in := make([]complex128, dk)
	for t := 0; t < len(amps)>>k; t++ {
		base := expand(t, masks)
		for x := range in {
			in[x] = amps[base+offs[x]]
		}
		for r := 0; r < dk; r++ {
			var re, im float64
			for c, a := range in {
				mr, mi := real(m[r*dk+c]), imag(m[r*dk+c])
				re = math.FMA(mr, real(a), re)
				im = math.FMA(mr, imag(a), im)
				re = math.FMA(-mi, imag(a), re)
				im = math.FMA(mi, real(a), im)
			}
			amps[base+offs[r]] = complex(re, im)
		}
	}
}

func oracleApplyF32(amps, m []complex64, qs []int) {
	k := len(qs)
	dk := 1 << k
	masks, offs := insertMasks(qs), offsets(qs)
	in := make([]complex64, dk)
	for t := 0; t < len(amps)>>k; t++ {
		base := expand(t, masks)
		for x := range in {
			in[x] = amps[base+offs[x]]
		}
		for r := 0; r < dk; r++ {
			var re, im float32
			for c, a := range in {
				mr, mi := real(m[r*dk+c]), imag(m[r*dk+c])
				re = fma32(mr, real(a), re)
				im = fma32(mr, imag(a), im)
				re = fma32(-mi, imag(a), re)
				im = fma32(mi, real(a), im)
			}
			amps[base+offs[r]] = complex(re, im)
		}
	}
}

// bitsEqual compares amplitude slices bit for bit, signed zeros included.
func bitsEqual(a, b []complex128) bool {
	return slices.EqualFunc(a, b, func(x, y complex128) bool {
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	})
}

func bitsEqualF32(a, b []complex64) bool {
	return slices.EqualFunc(a, b, func(x, y complex64) bool {
		return math.Float32bits(real(x)) == math.Float32bits(real(y)) &&
			math.Float32bits(imag(x)) == math.Float32bits(imag(y))
	})
}

// simdPositionSets lists, for a k-qubit gate on n qubits, position sets of
// every low-position class of both precisions at both widths: each subset
// of {0, 1, 2} as the low targets, the rest packed directly above, spread
// with gaps (so a lane bit lands between targets, as in {0, 1, 6}), and
// pushed to the top.
func simdPositionSets(n, k int) [][]int {
	var sets [][]int
	for low := 0; low < 8; low++ {
		var head []int
		for q := 0; q < 3; q++ {
			if low>>q&1 != 0 {
				head = append(head, q)
			}
		}
		rest := k - len(head)
		if rest < 0 || len(head) > 0 && head[len(head)-1] >= n {
			continue
		}
		for _, place := range []func(i int) int{
			func(i int) int { return 3 + i },        // packed
			func(i int) int { return 4 + 2*i },      // gaps
			func(i int) int { return n - rest + i }, // top
		} {
			qs := slices.Clone(head)
			ok := true
			for i := 0; i < rest; i++ {
				q := place(i)
				ok = ok && q >= 3 && q < n && !slices.Contains(qs, q)
				qs = append(qs, q)
			}
			if ok && !slices.ContainsFunc(sets, func(s []int) bool { return slices.Equal(s, qs) }) {
				sets = append(sets, qs)
			}
		}
	}
	return sets
}

// simdTable is one vector width's kernel tables, called directly — past
// PrepareDense, which picks between them by ISA and state size.
type simdTable struct {
	name   string
	lane64 int // a kernel needs 2^(k+lane64) complex128 …
	lane32 int // … or 2^(k+lane32) complex64
	f64    func(m []complex128, qs []int) Dense[complex128]
	f32    func(m []complex64, qs []int) Dense[complex64]
	// The diagonal kernels, run form and window form.
	run64, win64 func(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64)
	run32, win32 func(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64)
}

// simdTables lists the widths this CPU can execute, whatever ISA says: both
// are compiled in on amd64, so an AVX-512 host tests the YMM tables too, and
// a noavx512 build the ZMM ones.
func simdTables() []simdTable {
	var tables []simdTable
	if hasSIMD {
		tables = append(tables, simdTable{"ymm", 1, 2, ymmF64, ymmF32, simdDiagRunF64, simdDiagWinF64, simdDiagRunF32, simdDiagWinF32})
	}
	if cpuISA == "avx512" {
		tables = append(tables, simdTable{"zmm", 2, 3, zmmF64, zmmF32, simd512DiagRunF64, simd512DiagWinF64, simd512DiagRunF32, simd512DiagWinF32})
	}
	return tables
}

func requireSIMD(t testing.TB) {
	t.Helper()
	if !hasSIMD {
		t.Skipf("no SIMD kernels in this build or on this CPU (ISA %q)", ISA())
	}
}

// TestSIMDMatchesFMAOracle holds every (width, k, class, precision) to the
// oracle, on every state size from the gate's own 2^k — which no width's
// lanes fill — past the smallest that fills the ZMM lanes: the kernel
// PrepareDense picks for the size, and each width's table directly wherever
// the state fills its lanes.
func TestSIMDMatchesFMAOracle(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(81))
	for k := 1; k <= simdMaxK; k++ {
		u := gate.RandomUnitary(k, rng)
		u32 := ToComplex64(u.Data)
		for n := k; n <= k+6; n++ {
			state := randomState(n, rng)
			for _, qs := range simdPositionSets(n, k) {
				want := slices.Clone(state)
				oracleApply(want, u.Data, qs)
				got := slices.Clone(state)
				Apply(got, u.Data, qs)
				if !bitsEqual(got, want) {
					t.Errorf("f64 k=%d n=%d qs=%v: SIMD differs from the oracle (max diff %g)", k, n, qs, maxDiff(got, want))
				}
				want32 := ToComplex64(state)
				oracleApplyF32(want32, u32, qs)
				got32 := ToComplex64(state)
				Apply(got32, u32, qs)
				if !bitsEqualF32(got32, want32) {
					t.Errorf("f32 k=%d n=%d qs=%v: SIMD differs from the oracle", k, n, qs)
				}
				for _, tbl := range simdTables() {
					if n >= k+tbl.lane64 {
						d := tbl.f64(u.Data, qs)
						got := slices.Clone(state)
						d.Sweep(got)
						if !bitsEqual(got, want) {
							t.Errorf("%s f64 k=%d n=%d qs=%v: differs from the oracle (max diff %g)", tbl.name, k, n, qs, maxDiff(got, want))
						}
					}
					if n >= k+tbl.lane32 {
						d := tbl.f32(u32, qs)
						got32 := ToComplex64(state)
						d.Sweep(got32)
						if !bitsEqualF32(got32, want32) {
							t.Errorf("%s f32 k=%d n=%d qs=%v: differs from the oracle", tbl.name, k, n, qs)
						}
					}
				}
			}
		}
	}
}

// TestSIMDWidthsAgree applies the same gates to the same random state
// through the YMM and the ZMM tables: the lanes run the same FMAs in the same
// order at either width, so the two states are equal bit for bit — what keeps
// snapshots and qverify's matrix portable between AVX2 and AVX-512 hosts.
func TestSIMDWidthsAgree(t *testing.T) {
	tables := simdTables()
	if len(tables) < 2 {
		t.Skipf("this CPU runs %d of the two widths (ISA %q)", len(tables), ISA())
	}
	rng := rand.New(rand.NewSource(85))
	const n = 12
	ymm := randomState(n, rng)
	zmm := slices.Clone(ymm)
	ymm32, zmm32 := ToComplex64(ymm), ToComplex64(ymm)
	for k := 1; k <= simdMaxK; k++ {
		for _, qs := range simdPositionSets(n, k) {
			u := gate.RandomUnitary(k, rng)
			u32 := ToComplex64(u.Data)
			for i, amps := range [][]complex128{ymm, zmm} {
				d := tables[i].f64(u.Data, qs)
				d.Sweep(amps)
			}
			for i, amps := range [][]complex64{ymm32, zmm32} {
				d := tables[i].f32(u32, qs)
				d.Sweep(amps)
			}
			if !slices.Equal(ymm, zmm) || !slices.Equal(ymm32, zmm32) {
				t.Fatalf("k=%d qs=%v: the YMM and ZMM kernels disagree", k, qs)
			}
		}
	}
}

// TestSIMDIndependentOfWorkersAndShards applies the same positions with 1,
// 2, 3 and 7 workers, and to the 2^l-amplitude shards of the state one by
// one (what dist and oocvec do): all bitwise equal to the one-worker pass.
func TestSIMDIndependentOfWorkersAndShards(t *testing.T) {
	requireSIMD(t)
	old := par.Workers()
	t.Cleanup(func() { par.SetWorkers(old) })
	rng := rand.New(rand.NewSource(82))
	const n, l = 16, 13
	state := randomState(n, rng)
	for k := 1; k <= simdMaxK; k++ {
		u := gate.RandomUnitary(k, rng)
		u32 := ToComplex64(u.Data)
		for _, qs := range simdPositionSets(l, k) {
			par.SetWorkers(1)
			want := slices.Clone(state)
			Apply(want, u.Data, qs)
			want32 := ToComplex64(state)
			Apply(want32, u32, qs)
			for _, w := range []int{2, 3, 7} {
				par.SetWorkers(w)
				got := slices.Clone(state)
				Apply(got, u.Data, qs)
				got32 := ToComplex64(state)
				Apply(got32, u32, qs)
				if !bitsEqual(got, want) || !bitsEqualF32(got32, want32) {
					t.Errorf("k=%d qs=%v: result changes with %d workers", k, qs, w)
				}
			}
			got := slices.Clone(state)
			got32 := ToComplex64(state)
			for s := 0; s < len(state); s += 1 << l {
				Apply(got[s:s+1<<l], u.Data, qs)
				Apply(got32[s:s+1<<l], u32, qs)
			}
			if !bitsEqual(got, want) || !bitsEqualF32(got32, want32) {
				t.Errorf("k=%d qs=%v: shard-by-shard result differs from the full-state pass", k, qs)
			}
		}
	}
}

// TestDiagonalProductIndependentOfSweep multiplies every amplitude by the
// same entry through each route a diagonal op can take — Scale, the run
// form, the window form — and on a slice of odd length and offset: one
// product per amplitude, whichever sweep reaches it. The state is long
// enough that runs and Scale's chunks span several simdDiagBlock calls.
func TestDiagonalProductIndependentOfSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n = 16
	if 1<<(n-1) <= simdDiagBlock {
		t.Fatal("state too short to split a run across assembly calls")
	}
	state := randomState(n, rng)
	dx := complex(0.6, -0.8)
	want := slices.Clone(state)
	Scale(want, dx)
	want32 := ToComplex64(state)
	Scale(want32, complex64(dx))
	for _, qs := range [][]int{{0}, {1}, {3}, {diagRunMin}, {0, 5}, {2, n - 1}, {n - 1}, {diagRunMin, n - 1}} {
		d := make([]complex128, 1<<len(qs))
		for i := range d {
			d[i] = dx
		}
		got := slices.Clone(state)
		ApplyDiagonal(got, d, qs)
		got32 := ToComplex64(state)
		ApplyDiagonalF32(got32, ToComplex64(d), qs)
		if !bitsEqual(got, want) || !bitsEqualF32(got32, want32) {
			t.Errorf("qs=%v: the diagonal sweep and Scale round differently", qs)
		}
	}
	got := slices.Clone(state)
	Scale(got[:5], dx)
	Scale(got[5:], dx)
	if !bitsEqual(got, want) {
		t.Error("Scale rounds differently on slices of odd length and offset")
	}
}

// TestDiagonalRunMatchesOracle multiplies slices of every length around the
// lane counts of both widths (2, 4 and 8 amplitudes) and around
// simdDiagBlock, at odd offsets, through Scale and through each width's
// run-form kernel directly, as one unit and as two: one multiply and one FMA
// per part, whichever width and whichever of vector body and tail reaches
// the amplitude.
func TestDiagonalRunMatchesOracle(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(86))
	dx := complex(0.6, -0.8)
	dx32 := complex64(dx)
	all := ^uint64(0)
	lengths := []int{simdDiagBlock - 1, simdDiagBlock, simdDiagBlock + 1}
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	state := randomState(15, rng)[:simdDiagBlock+8]
	for _, n := range lengths {
		for _, off := range []int{0, 1, 3} {
			want := slices.Clone(state)
			want32 := ToComplex64(state)
			for i := off; i < off+n; i++ {
				a, b := want[i], want32[i]
				want[i] = complex(math.FMA(-imag(dx), imag(a), real(a)*real(dx)), math.FMA(imag(dx), real(a), imag(a)*real(dx)))
				want32[i] = complex(fma32(-imag(dx32), imag(b), real(b)*real(dx32)), fma32(imag(dx32), real(b), imag(b)*real(dx32)))
			}
			got, got32 := slices.Clone(state), ToComplex64(state)
			Scale(got[off:off+n], dx)
			Scale(got32[off:off+n], dx32)
			if !bitsEqual(got, want) || !bitsEqualF32(got32, want32) {
				t.Errorf("n=%d off=%d: Scale differs from the oracle", n, off)
			}
			if n > simdDiagBlock {
				continue // one kernel call of a sweep multiplies at most simdDiagBlock amplitudes
			}
			for _, tbl := range simdTables() {
				// One unit of n, then two of n/2 and a unit for the odd one out.
				for _, units := range []int{1, 2} {
					got, got32 := slices.Clone(state), ToComplex64(state)
					u := n / units
					if u > 0 {
						tbl.run64(&got[off], 0, units, u, 0, &dx, &all)
						tbl.run32(&got32[off], 0, units, u, 0, &dx32, &all)
					}
					if rest := n - units*u; rest > 0 {
						tbl.run64(&got[off+units*u], 0, 1, rest, 0, &dx, &all)
						tbl.run32(&got32[off+units*u], 0, 1, rest, 0, &dx32, &all)
					}
					if !bitsEqual(got, want) || !bitsEqualF32(got32, want32) {
						t.Errorf("%s n=%d off=%d, %d units: the run kernel differs from the oracle", tbl.name, n, off, units)
					}
				}
			}
		}
	}
}

// FuzzSIMDKernel draws the gate size, the position set, the state size and
// the worker count, and holds both precisions to the oracle.
func FuzzSIMDKernel(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint64(0b1000011), int64(1), uint8(2))
	f.Add(uint8(1), uint8(2), uint64(1), int64(2), uint8(1))
	f.Add(uint8(5), uint8(6), uint64(0b111101), int64(3), uint8(3))
	f.Fuzz(func(t *testing.T, k, n uint8, posBits uint64, seed int64, workers uint8) {
		requireSIMD(t)
		kk := 1 + int(k)%simdMaxK
		nn := kk + int(n)%8
		// The kk lowest set bits of posBits (mod 2^nn), topped up from
		// position 0, are the targets.
		var qs []int
		for q := 0; q < nn && len(qs) < kk; q++ {
			if posBits>>q&1 != 0 {
				qs = append(qs, q)
			}
		}
		for q := 0; len(qs) < kk; q++ {
			if !slices.Contains(qs, q) {
				qs = append(qs, q)
			}
		}
		slices.Sort(qs)
		old := par.SetWorkers(1 + int(workers)%4)
		defer par.SetWorkers(old)
		rng := rand.New(rand.NewSource(seed))
		u := gate.RandomUnitary(kk, rng)
		state := randomState(nn, rng)
		want := slices.Clone(state)
		oracleApply(want, u.Data, qs)
		got := slices.Clone(state)
		Apply(got, u.Data, qs)
		if !bitsEqual(got, want) {
			t.Errorf("f64 k=%d n=%d qs=%v: SIMD differs from the oracle", kk, nn, qs)
		}
		u32 := ToComplex64(u.Data)
		want32 := ToComplex64(state)
		oracleApplyF32(want32, u32, qs)
		got32 := ToComplex64(state)
		Apply(got32, u32, qs)
		if !bitsEqualF32(got32, want32) {
			t.Errorf("f32 k=%d n=%d qs=%v: SIMD differs from the oracle", kk, nn, qs)
		}
		for _, tbl := range simdTables() {
			if nn >= kk+tbl.lane64 {
				d := tbl.f64(u.Data, qs)
				got := slices.Clone(state)
				d.Sweep(got)
				if !bitsEqual(got, want) {
					t.Errorf("%s f64 k=%d n=%d qs=%v: differs from the oracle", tbl.name, kk, nn, qs)
				}
			}
			if nn >= kk+tbl.lane32 {
				d := tbl.f32(u32, qs)
				got32 := ToComplex64(state)
				d.Sweep(got32)
				if !bitsEqualF32(got32, want32) {
					t.Errorf("%s f32 k=%d n=%d qs=%v: differs from the oracle", tbl.name, kk, nn, qs)
				}
			}
		}
	})
}

// The oracle of the reduction kernels: cmd/kernelgen/reduce.go's operation
// sequence on one lane, math.FMA where the assembly fuses and a rounded
// product (the float64 conversions) where it does not.

// oracleLn is the entropy kernels' ln p.
func oracleLn(p float64) float64 {
	const (
		ln2hi = 6.93147180369123816490e-01
		ln2lo = 1.90821492927058770002e-10
		lg1   = 6.666666666666735130e-01
		lg2   = 3.999999999940941908e-01
		lg3   = 2.857142874366239149e-01
		lg4   = 2.222219843214978396e-01
		lg5   = 1.818357216161805012e-01
		lg6   = 1.531383769920937332e-01
		lg7   = 1.479819860511658591e-01

		sqrtHalf = 0x3FE6A09E667F3BCD
	)
	x, kscale := p, 0.0
	if p < 0x1p-1022 {
		x, kscale = p*0x1p54, 54
	}
	ix := math.Float64bits(x) + (0x3FF0000000000000 - sqrtHalf)
	k := float64(int(ix>>52)-1023) - kscale
	f := math.Float64frombits(ix&(1<<52-1)+sqrtHalf) - 1
	s := f / (2 + f)
	z := float64(s * s)
	w := float64(z * z)
	t1 := float64(w * math.FMA(w, math.FMA(w, lg6, lg4), lg2))
	t2 := math.FMA(w, math.FMA(w, math.FMA(w, lg7, lg5), lg3), lg1)
	r := math.FMA(z, t2, t1)
	hfsq := float64(float64(f*0.5) * f)
	u := math.FMA(s, r+hfsq, float64(k*ln2lo))
	return math.FMA(k, ln2hi, -(hfsq - u - f))
}

// oracleReduce is reduceBlocks by the oracle's arithmetic: per call one
// accumulator per lane (4 in a YMM register, 8 in a ZMM register), amplitude
// i into accumulator i mod lanes, summed in the kernels' order.
func oracleReduce[C complexAmp](amps []C, entropy bool, lanes int) (norm, ent float64) {
	sum := func(l [8]float64) float64 {
		if lanes == 8 {
			return ((l[0] + l[2]) + (l[1] + l[3])) + ((l[4] + l[6]) + (l[5] + l[7]))
		}
		return (l[0] + l[1]) + (l[2] + l[3])
	}
	for len(amps) > 0 {
		n := min(len(amps), simdDiagBlock)
		if n > lanes {
			n &^= lanes - 1
		}
		var ns, es [8]float64
		for i, a := range amps[:n] {
			z := complex128(a)
			p := float64(real(z)*real(z)) + float64(imag(z)*imag(z))
			ns[i%lanes] += p
			if entropy {
				es[i%lanes] = math.FMA(-p, oracleLn(p), es[i%lanes])
			}
		}
		norm += sum(ns)
		ent += sum(es)
		amps = amps[n:]
	}
	return norm, ent
}

// sameFloat is bitwise equality, any NaN equal to any other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestSIMDReduceMatchesFMAOracle covers every tail length and slices that
// start at odd offsets, and lengths around the assembly call bound: through
// Norm, Entropy and NormEntropy at this machine's width, and through each
// width's kernels directly.
func TestSIMDReduceMatchesFMAOracle(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(84))
	buf := make([]complex128, simdDiagBlock+8)
	for i := range buf {
		// Moduli from 1e-9 to 1e3, so k and f range widely.
		r := math.Pow(10, 12*rng.Float64()-9)
		buf[i] = complex(r*rng.NormFloat64(), r*rng.NormFloat64())
	}
	buf32 := ToComplex64(buf)
	lengths := []int{simdDiagBlock - 1, simdDiagBlock, simdDiagBlock + 1}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 3} {
			checkReduceOracle(t, buf[off:off+n], off)
			checkReduceOracle(t, buf32[off:off+n], off)
			checkReduceKernels(t, buf[off:off+n], off, 4, simdNormF64, simdNormEntropyF64)
			checkReduceKernels(t, buf32[off:off+n], off, 4, simdNormF32, simdNormEntropyF32)
			if cpuISA == "avx512" {
				checkReduceKernels(t, buf[off:off+n], off, 8, simd512NormF64, simd512NormEntropyF64)
				checkReduceKernels(t, buf32[off:off+n], off, 8, simd512NormF32, simd512NormEntropyF32)
			}
		}
	}
}

func checkReduceOracle[C complexAmp](t *testing.T, amps []C, off int) {
	t.Helper()
	n, lanes := len(amps), 4
	if hasAVX512 {
		lanes = 8
	}
	wantNorm, wantEnt := oracleReduce(amps, true, lanes)
	norm, ent := NormEntropy(amps)
	if !sameFloat(norm, wantNorm) || !sameFloat(ent, wantEnt) {
		t.Errorf("%T n=%d off=%d: NormEntropy = (%v, %v), oracle (%v, %v)", amps, n, off, norm, ent, wantNorm, wantEnt)
	}
	if got := Norm(amps); !sameFloat(got, wantNorm) {
		t.Errorf("%T n=%d off=%d: Norm = %v, oracle %v", amps, n, off, got, wantNorm)
	}
	if got := Entropy(amps); !sameFloat(got, wantEnt) {
		t.Errorf("%T n=%d off=%d: Entropy = %v, oracle %v", amps, n, off, got, wantEnt)
	}
}

// checkReduceKernels holds one width's pair of kernels to the oracle.
func checkReduceKernels[C complexAmp](t *testing.T, amps []C, off, lanes int, normKernel, entKernel func(*C, int) (float64, float64)) {
	t.Helper()
	wantNorm, wantEnt := oracleReduce(amps, true, lanes)
	if norm, _ := reduceBlocks(amps, lanes, normKernel); !sameFloat(norm, wantNorm) {
		t.Errorf("%T n=%d off=%d, %d lanes: norm kernel = %v, oracle %v", amps, len(amps), off, lanes, norm, wantNorm)
	}
	if norm, ent := reduceBlocks(amps, lanes, entKernel); !sameFloat(norm, wantNorm) || !sameFloat(ent, wantEnt) {
		t.Errorf("%T n=%d off=%d, %d lanes: entropy kernel = (%v, %v), oracle (%v, %v)", amps, len(amps), off, lanes, norm, ent, wantNorm, wantEnt)
	}
}
