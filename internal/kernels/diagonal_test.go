package kernels

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The oracle of the diagonal kernels: amplitude i is multiplied by the entry
// the bits of i at the positions select — as one multiply and one FMA per
// part, re = fma(−di, ai, dr·ar), im = fma(di, ar, dr·ai), in float32 on the
// assembly's single-precision route and through float64 on the pure-Go one
// (diagProduct32) — and left alone, bit for bit, where that entry is
// exactly 1.

// diagEntries draws 2^k entries: a third exactly 1, a sixth −1, the rest
// random phases.
func diagEntries(k int, rng *rand.Rand) []complex128 {
	d := make([]complex128, 1<<k)
	for i := range d {
		switch r := rng.Intn(6); {
		case r < 2:
			d[i] = 1
		case r == 2:
			d[i] = -1
		default:
			phi := rng.Float64() * 2 * math.Pi
			d[i] = complex(math.Cos(phi), math.Sin(phi))
		}
	}
	return d
}

// diagState is a random state of 2^n amplitudes with every seventh one
// special: signed zeros, NaNs with payloads, infinities — values a unit entry
// must hand back untouched.
func diagState(n int, rng *rand.Rand) []complex128 {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	specials := []complex128{
		complex(math.Copysign(0, -1), math.Copysign(0, -1)), complex(0, math.Copysign(0, -1)),
		complex(nan, 1), complex(math.Inf(1), math.Inf(-1)), complex(math.Copysign(0, -1), math.Inf(1)),
	}
	state := randomState(n, rng)
	for i := 3; i < len(state); i += 7 {
		state[i] = specials[i%len(specials)]
	}
	return state
}

// sameAmp is bitwise equality where unit says the amplitude was left alone,
// and equality with any NaN matching any NaN where it was multiplied (which
// payload a NaN product carries is the FPU's choice, not the kernel's).
func sameAmp[T complexAmp](got, want T, unit bool) bool {
	if !unit {
		g, w := complex128(got), complex128(want)
		return sameFloat(real(g), real(w)) && sameFloat(imag(g), imag(w))
	}
	if g, ok := any(got).(complex64); ok {
		return bitsEqualF32([]complex64{g}, []complex64{any(want).(complex64)})
	}
	return bitsEqual([]complex128{any(got).(complex128)}, []complex128{any(want).(complex128)})
}

// diagRoutes is every way to the kernels a test can take for one prepared
// diagonal: this machine's, then the pure-Go walk and each width's assembly
// called directly, whatever ISA says. simd reports which routes multiply in
// the assembly.
func diagRoutes[T complexAmp](p *Diagonal[T]) (names []string, routes []*Diagonal[T], simd []bool) {
	names, routes, simd = []string{ISA()}, []*Diagonal[T]{p}, []bool{hasSIMD}
	if hasSIMD {
		q := *p
		q.kern, q.scale = nil, goScale[T]
		names, routes, simd = append(names, "go"), append(routes, &q), append(simd, false)
	}
	for _, tbl := range simdTables() {
		q := *p
		kern := map[bool]any{false: tbl.run64, true: tbl.win64}
		if _, ok := any(p.tbl).([]complex64); ok {
			kern = map[bool]any{false: tbl.run32, true: tbl.win32}
		}
		q.kern = kern[len(p.tbl) > len(p.masks)].(func(*T, int, int, int, int, *T, *uint64))
		names, routes, simd = append(names, tbl.name), append(routes, &q), append(simd, true)
	}
	return names, routes, simd
}

// checkDiagonalOracle applies d on qs to piece, whose first amplitude has
// index base, in both precisions through Block and Sweep on every route, and
// holds each amplitude to the oracle.
func checkDiagonalOracle(t *testing.T, qs []int, d []complex128, piece []complex128, base int) {
	t.Helper()
	entry := make([]int, len(piece))
	for i := range entry {
		for j, q := range qs {
			entry[i] |= ((base + i) >> q & 1) << j
		}
	}
	checkDiagonalRoutes(t, qs, d, piece, base, entry, func(a, d complex128, _ bool) complex128 { return diagProduct(a, d) })
	checkDiagonalRoutes(t, qs, ToComplex64(d), ToComplex64(piece), base, entry, diagProduct32)
}

// checkDiagonalRoutes is checkDiagonalOracle in one precision; entry is the
// index into d of every amplitude of piece.
func checkDiagonalRoutes[T complexAmp](t *testing.T, qs []int, d, piece []T, base int, entry []int, product func(a, d T, simd bool) T) {
	t.Helper()
	names, routes, simd := diagRoutes(PrepareDiagonal(d, qs, len(piece)))
	want, got := make([]T, len(piece)), make([]T, len(piece))
	for r, p := range routes {
		copy(want, piece)
		for i, x := range entry {
			if d[x] != 1 {
				want[i] = product(piece[i], d[x], simd[r])
			}
		}
		for _, how := range []string{"Block", "Sweep"} {
			copy(got, piece)
			if how == "Block" {
				p.Block(got, base)
			} else {
				p.Sweep(got, base)
			}
			if bytes.Equal(AmpBytes(got), AmpBytes(want)) {
				continue
			}
			for i, x := range entry {
				if !sameAmp(got[i], want[i], d[x] == 1) {
					t.Fatalf("%T %s %s qs=%v base=%#x: amps[%d] = %v, want %v (entry %v of %v)", d, names[r], how, qs, base, i, got[i], want[i], d[x], piece[i])
				}
			}
		}
	}
}

// deposit spreads the low bits of v over the positions qs: PDEP.
func deposit(v int, qs []int) int {
	x := 0
	for j, q := range qs {
		x |= (v >> j & 1) << q
	}
	return x
}

// TestDiagonalWindowsMatchOracle holds every sorted position set of k ≤ 5
// drawn from {0…8, 15, 16, 19, 22} — the window form's low positions, rows
// picked inside a piece and from above it, and the run form — to the
// oracle, in both precisions, through Block and Sweep, on this machine's
// kernels, the pure-Go walk and each width's assembly directly. Each set runs on a 2^12-amplitude
// piece under a base for every value of its positions above the piece, so
// every row is reached; the QFT's shapes — among them diagonals the
// scheduler folded to 8–10 positions — also run on a 2^20 piece, which Sweep
// splits over many calls and workers.
func TestDiagonalWindowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	const small, large = 12, 20
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 19, 22}
	state := diagState(large, rng)
	for set := 0; set < 1<<len(pool); set++ {
		if bits.OnesCount(uint(set)) > 5 {
			continue
		}
		var qs, above []int
		for j, q := range pool {
			if set>>j&1 != 0 {
				qs = append(qs, q)
				if q >= small {
					above = append(above, q)
				}
			}
		}
		d := diagEntries(len(qs), rng)
		piece := state[rng.Intn(len(state)>>small)<<small:][:1<<small]
		for v := 0; v < 1<<len(above); v++ {
			// Bit 23 is no position: a base may carry bits nothing selects.
			checkDiagonalOracle(t, qs, d, piece, 1<<23|deposit(v, above))
		}
	}
	for _, qs := range [][]int{
		{0, 3, 9, 10, 19}, {1, 4, 8, 12, 16}, {2, 5, 11, 15, 19}, {4, 7, 13, 17, 22}, {19, 22},
		{0, 1, 3, 9, 10, 11, 12, 13, 19}, {0, 2, 3, 6, 7, 9, 10, 15, 16, 17}, {3, 6, 7, 8, 19, 20, 21, 22}, {0, 1, 3, 8, 9, 10, 11, 12, 13, 22},
	} {
		d := diagEntries(len(qs), rng)
		for _, base := range []int{0, 7 << 20} {
			checkDiagonalOracle(t, qs, d, state, base)
		}
	}
}

// FuzzDiagonal draws the positions (up to 10 of 0…23, the widest diagonal
// the scheduler folds), the base index of the piece, its size and the
// entries, and holds both precisions to the oracle on every route.
func FuzzDiagonal(f *testing.F) {
	f.Add(uint32(0b1000_0000_0110_0000_1001), uint32(5<<20), uint8(12), int64(1))
	f.Add(uint32(1), uint32(0), uint8(3), int64(2))
	f.Add(uint32(0b1100_0000_0000_0000_0000_0000), uint32(3<<22), uint8(10), int64(3))
	f.Add(uint32(0b0100_0000_0011_1111_0000_1011), uint32(7<<20), uint8(14), int64(4))
	f.Fuzz(func(t *testing.T, posBits, base uint32, n uint8, seed int64) {
		var qs []int
		for q := 0; q < 24 && len(qs) < 10; q++ {
			if posBits>>q&1 != 0 {
				qs = append(qs, q)
			}
		}
		nn := int(n) % 15
		rng := rand.New(rand.NewSource(seed))
		checkDiagonalOracle(t, qs, diagEntries(len(qs), rng), diagState(nn, rng), int(base)&^(1<<nn-1))
	})
}
