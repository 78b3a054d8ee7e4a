package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/par"
)

// runOnUniform returns c applied to the uniform superposition. The test
// circuits' two-qubit gates (CZ, controlled phase) are symmetric, so their
// qubits may be sorted without permuting the matrix.
func runOnUniform(c *circuit.Circuit) []complex128 {
	amps := make([]complex128, 1<<c.N)
	for i := range amps {
		amps[i] = complex(math.Pow(2, -float64(c.N)/2), 0)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		qs := append([]int(nil), g.Qubits...)
		if len(qs) == 2 && qs[0] > qs[1] {
			qs[0], qs[1] = qs[1], qs[0]
		}
		Apply(amps, g.Matrix().Data, qs)
	}
	return amps
}

// refLn is math.Log, except that amd64's assembly math.Log takes a
// subnormal for 2^-1023 (Log(5e-324) = −709.09, not −744.44): those go
// through a scaled copy. The entropy kernels get subnormals right; the
// fallback loop is math.Log, whatever that is here.
func refLn(p float64) float64 {
	if p < 0x1p-1022 && hasSIMD {
		return scaledLn(p)
	}
	return math.Log(p)
}

func scaledLn(p float64) float64 { return math.Log(p*0x1p54) - 54*math.Ln2 }

// refNormEntropy is the scalar math.Log loop with compensated (Neumaier)
// sums: plain left-to-right addition of 2^16 equal terms drifts by more
// than the tolerance the kernels are held to.
func refNormEntropy[C complexAmp](amps []C) (norm, ent float64) {
	var nc, ec float64
	add := func(sum, comp *float64, x float64) {
		s := *sum + x
		if math.Abs(*sum) >= math.Abs(x) {
			*comp += (*sum - s) + x
		} else {
			*comp += (x - s) + *sum
		}
		*sum = s
	}
	for _, a := range amps {
		z := complex128(a)
		p := real(z)*real(z) + imag(z)*imag(z)
		add(&norm, &nc, p)
		if p != 0 {
			add(&ent, &ec, -p*refLn(p))
		}
	}
	return norm + nc, ent + ec
}

// TestReductionsMatchScalarLoop holds Norm and Entropy — the assembly where
// it runs — to the scalar math.Log loop on the three kinds of output the
// workloads produce: Porter–Thomas, one peak among rounding residues, flat.
func TestReductionsMatchScalarLoop(t *testing.T) {
	old := par.Workers()
	t.Cleanup(func() { par.SetWorkers(old) })
	const n = 16
	uniform := runOnUniform(circuit.NewCircuit(n))
	if h := Entropy(uniform); hasSIMD && math.Abs(h-n*math.Ln2) > 1e-12 {
		t.Errorf("uniform state: entropy %v, want %d·ln 2 = %v", h, n, n*math.Ln2)
	}
	// The assembly's tolerances; the fallback adds left to right, which on a
	// flat distribution drifts by about 1e-11.
	normTol, entTol := 1e-13, 1e-12
	if !hasSIMD {
		normTol, entTol = 1e-11, 1e-10
	}
	for name, amps := range map[string][]complex128{
		"supremacy": runOnUniform(circuit.Supremacy(circuit.SupremacyOptions{Rows: 4, Cols: 4, Depth: 12, Seed: 3, SkipInitialH: true})),
		"qft":       runOnUniform(circuit.QFT(n)),
		"uniform":   uniform,
	} {
		refNorm, refEnt := refNormEntropy(amps)
		refNorm32, refEnt32 := refNormEntropy(ToComplex64(amps))
		// The fallback loop is the same sum without compensation.
		if norm, ent := normEntropyGo(amps); math.Abs(norm-refNorm) > 1e-11 || math.Abs(ent-refEnt) > 1e-10 {
			t.Errorf("%s: fallback loop (%v, %v), reference (%v, %v)", name, norm, ent, refNorm, refEnt)
		}
		for _, w := range []int{1, 2, 3} {
			par.SetWorkers(w)
			norm, ent := NormEntropy(amps)
			norm32, ent32 := NormEntropy(ToComplex64(amps))
			for _, c := range []struct {
				what           string
				got, want, tol float64
			}{
				{"norm", norm, refNorm, normTol},
				{"entropy", ent, refEnt, entTol * max(1, math.Abs(refEnt))},
				{"f32 norm", norm32, refNorm32, normTol},
				{"f32 entropy", ent32, refEnt32, entTol * max(1, math.Abs(refEnt32))},
			} {
				if !(math.Abs(c.got-c.want) <= c.tol) {
					t.Errorf("%s, %d workers: %s = %v, scalar loop %v", name, w, c.what, c.got, c.want)
				}
			}
		}
	}
}

// TestNormEntropyEqualsNormAndEntropy: the fused pass returns bit for bit
// what the two separate ones do, on one chunk and across workers.
func TestNormEntropyEqualsNormAndEntropy(t *testing.T) {
	old := par.Workers()
	t.Cleanup(func() { par.SetWorkers(old) })
	rng := rand.New(rand.NewSource(91))
	for _, n := range []int{0, 1, 7, 4096, 3*reduceGrain + 5} {
		amps := make([]complex128, n)
		for i := range amps {
			amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, w := range []int{1, 3} {
			par.SetWorkers(w)
			norm, ent := NormEntropy(amps)
			norm32, ent32 := NormEntropy(ToComplex64(amps))
			if a, b := Norm(amps), Entropy(amps); a != norm || b != ent {
				t.Errorf("n=%d, %d workers: NormEntropy (%v, %v), Norm %v, Entropy %v", n, w, norm, ent, a, b)
			}
			if a, b := Norm(ToComplex64(amps)), Entropy(ToComplex64(amps)); a != norm32 || b != ent32 {
				t.Errorf("f32 n=%d, %d workers: NormEntropy (%v, %v), Norm %v, Entropy %v", n, w, norm32, ent32, a, b)
			}
		}
	}
}

// TestEntropyEdgeProbabilities pins what one amplitude of probability p
// contributes, alone and inside a longer state: nothing for p = 0, −p·ln p
// down to the smallest subnormal, −Inf for +Inf, and NaN for NaN — a
// poisoned state must not report a finite entropy beside a NaN norm. A
// complex64 cannot hold the smaller moduli; those rows then pin p = 0.
func TestEntropyEdgeProbabilities(t *testing.T) {
	for _, p := range []float64{0, 5e-324, 0x1p-1022, 1e-300, 0x1p-53, 1, 4, math.Inf(1), math.NaN()} {
		for _, pad := range []int{0, 9} {
			amps := make([]complex128, 1+pad)
			for i := range amps {
				amps[i] = complex(0.25, -0.125)
			}
			amps[pad/2] = complex(math.Sqrt(p), 0)
			testEdge(t, fmt.Sprintf("f64 p=%g pad=%d", p, pad), amps, amps[pad/2])
			amps32 := ToComplex64(amps)
			testEdge(t, fmt.Sprintf("f32 p=%g pad=%d", p, pad), amps32, complex128(amps32[pad/2]))
		}
	}
}

func testEdge[C complexAmp](t *testing.T, name string, amps []C, a complex128) {
	t.Helper()
	p := real(a) * real(a)
	wantNorm, wantEnt := refNormEntropy(amps)
	norm, ent := NormEntropy(amps)
	switch {
	case math.IsNaN(p):
		_, goEnt := normEntropyGo(amps)
		if !math.IsNaN(norm) || !math.IsNaN(ent) || !math.IsNaN(goEnt) {
			t.Errorf("%s: (norm, entropy) = (%v, %v), fallback entropy %v; want all NaN", name, norm, ent, goEnt)
		}
	case math.IsInf(p, 1):
		_, goEnt := normEntropyGo(amps)
		if !math.IsInf(norm, 1) || !math.IsInf(ent, -1) || !math.IsInf(goEnt, -1) {
			t.Errorf("%s: (norm, entropy) = (%v, %v), fallback entropy %v; want (+Inf, −Inf)", name, norm, ent, goEnt)
		}
	default:
		// Within a few ulps of the scalar loop, subnormal results included
		// (whose ulp is 5e-324, not a fraction of the value).
		if math.Abs(ent-wantEnt) > 4e-16*math.Abs(wantEnt)+1e-323 || norm != wantNorm {
			t.Errorf("%s: (norm, entropy) = (%v, %v), scalar loop (%v, %v)", name, norm, ent, wantNorm, wantEnt)
		}
		if len(amps) == 1 && p == 0 && (ent != 0 || math.Signbit(ent)) {
			t.Errorf("%s: a zero amplitude contributes %v", name, ent)
		}
		if len(amps) == 1 && p > 0 && !(math.Abs(ent+p*refLn(p)) <= 4e-16*math.Abs(ent)+1e-323) {
			t.Errorf("%s: entropy %v, want −p·ln p = %v", name, ent, -p*refLn(p))
		}
	}
}

// TestOracleLnWithinTwoUlps bounds the error of the entropy kernels'
// logarithm (simd_test.go holds the assembly to oracleLn bit for bit): over
// the whole positive range, subnormals included, it stays within 2 ulps of
// math.Log, itself below 1 ulp from the true value.
func TestOracleLnWithinTwoUlps(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	worst := 0.0
	for i := 0; i < 200000; i++ {
		p := math.Float64frombits(rng.Uint64() % 0x7FF0000000000000)
		switch i % 4 {
		case 1: // around 1, where ln p cancels
			p = 1 + (rng.Float64()-0.5)*math.Pow(2, -float64(rng.Intn(50)))
		case 2: // a Porter–Thomas probability of a 24-qubit state
			p = rng.ExpFloat64() / (1 << 24)
		}
		if p == 0 {
			continue
		}
		want := math.Log(p)
		if p < 0x1p-1022 {
			want = scaledLn(p)
		}
		got := oracleLn(p)
		ulp := math.Abs(math.Nextafter(want, math.Inf(1)) - want)
		worst = max(worst, math.Abs(got-want)/ulp)
	}
	if worst > 2 {
		t.Errorf("oracleLn is %v ulps from math.Log", worst)
	}
	t.Logf("worst distance from math.Log: %v ulps", worst)
}
