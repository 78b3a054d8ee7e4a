package gate

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func TestIdentity(t *testing.T) {
	for k := 0; k <= 4; k++ {
		id := Identity(k)
		if !id.IsUnitary(tol) {
			t.Errorf("Identity(%d) not unitary", k)
		}
		if !id.IsDiagonal(tol) {
			t.Errorf("Identity(%d) not diagonal", k)
		}
		d := id.Dim()
		if d != 1<<k {
			t.Errorf("Identity(%d).Dim() = %d, want %d", k, d, 1<<k)
		}
	}
}

func TestFromRowsPanics(t *testing.T) {
	cases := [][][]complex128{
		{{1, 0}, {0, 1}, {0, 0}}, // 3 rows: not a power of two
		{{1, 0, 0}, {0, 1, 0}},   // ragged vs dim
		{{1}, {0}},               // rows of wrong length for dim 2
	}
	for i, rows := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: FromRows did not panic", i)
				}
			}()
			FromRows(rows)
		}()
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 3; k++ {
		u := RandomUnitary(k, rng)
		if !ApproxEqual(Mul(u, Identity(k)), u, tol) {
			t.Errorf("k=%d: u·I != u", k)
		}
		if !ApproxEqual(Mul(Identity(k), u), u, tol) {
			t.Errorf("k=%d: I·u != u", k)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(3)
		a, b, c := RandomUnitary(k, rng), RandomUnitary(k, rng), RandomUnitary(k, rng)
		lhs := Mul(Mul(a, b), c)
		rhs := Mul(a, Mul(b, c))
		if !ApproxEqual(lhs, rhs, 1e-10) {
			t.Fatalf("trial %d: (ab)c != a(bc)", trial)
		}
	}
}

func TestDaggerInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(3)
		u := RandomUnitary(k, rng)
		if !ApproxEqual(Mul(u, u.Dagger()), Identity(k), 1e-10) {
			t.Fatalf("trial %d: u·u† != I", trial)
		}
	}
}

func TestKronDimsAndValues(t *testing.T) {
	a := X()
	b := Z()
	k := Kron(a, b) // X on qubit 1, Z on qubit 0
	if k.K != 2 {
		t.Fatalf("Kron(X,Z).K = %d, want 2", k.K)
	}
	// (X⊗Z)|00⟩ = |10⟩ ; index 0 -> index 2 with +1.
	if k.At(2, 0) != 1 {
		t.Errorf("(X⊗Z)[2,0] = %v, want 1", k.At(2, 0))
	}
	// (X⊗Z)|01⟩ = −|11⟩.
	if k.At(3, 1) != -1 {
		t.Errorf("(X⊗Z)[3,1] = %v, want -1", k.At(3, 1))
	}
}

func TestKronMatchesEmbed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		a := RandomUnitary(1, rng)
		b := RandomUnitary(1, rng)
		// a on qubit 1, b on qubit 0.
		kron := Kron(a, b)
		emb := Mul(Embed(a, []int{1}, 2), Embed(b, []int{0}, 2))
		if !ApproxEqual(kron, emb, 1e-10) {
			t.Fatalf("trial %d: Kron != Embed·Embed", trial)
		}
	}
}

func TestStandardGatesUnitary(t *testing.T) {
	gates := map[string]Matrix{
		"H": H(), "X": X(), "Y": Y(), "Z": Z(), "S": S(), "T": T(),
		"XHalf": XHalf(), "YHalf": YHalf(), "CZ": CZ(), "CNOT": CNOT(),
		"Swap": Swap(),
		"Rx":   Rx(0.7), "Ry": Ry(1.3), "Rz": Rz(2.1),
		"Phase": Phase(0.9), "CPhase": CPhase(1.7),
	}
	for name, g := range gates {
		if !g.IsUnitary(tol) {
			t.Errorf("%s is not unitary", name)
		}
	}
}

func TestDiagonalPredicates(t *testing.T) {
	diag := []Matrix{Z(), S(), T(), CZ(), Rz(0.3), Phase(0.5), CPhase(0.2)}
	for i, g := range diag {
		if !g.IsDiagonal(tol) {
			t.Errorf("diag case %d should be diagonal", i)
		}
	}
	nondiag := []Matrix{H(), X(), Y(), XHalf(), YHalf(), CNOT(), Swap()}
	for i, g := range nondiag {
		if g.IsDiagonal(tol) {
			t.Errorf("nondiag case %d should not be diagonal", i)
		}
	}
}

func TestSqrtGates(t *testing.T) {
	// X^{1/2} squared must equal X, Y^{1/2} squared must equal Y
	// (up to global phase).
	if !EqualUpToGlobalPhase(Mul(XHalf(), XHalf()), X(), 1e-12) {
		t.Errorf("XHalf² != X: got %v", Mul(XHalf(), XHalf()))
	}
	if !EqualUpToGlobalPhase(Mul(YHalf(), YHalf()), Y(), 1e-12) {
		t.Errorf("YHalf² != Y: got %v", Mul(YHalf(), YHalf()))
	}
	// T² = S, S² = Z.
	if !ApproxEqual(Mul(T(), T()), S(), 1e-12) {
		t.Errorf("T² != S")
	}
	if !ApproxEqual(Mul(S(), S()), Z(), 1e-12) {
		t.Errorf("S² != Z")
	}
}

func TestHadamardInvolution(t *testing.T) {
	if !ApproxEqual(Mul(H(), H()), Identity(1), tol) {
		t.Error("H² != I")
	}
}

func TestCNOTAction(t *testing.T) {
	cx := CNOT()
	// Basis |c t⟩, index 2c + t. Control=1, target=0 -> target flips: |10⟩→|11⟩.
	if cx.At(3, 2) != 1 || cx.At(2, 3) != 1 {
		t.Error("CNOT does not flip target when control set")
	}
	if cx.At(0, 0) != 1 || cx.At(1, 1) != 1 {
		t.Error("CNOT does not fix states with control clear")
	}
}

func TestCZSymmetric(t *testing.T) {
	cz := CZ()
	sw := Swap()
	if !ApproxEqual(Mul(sw, Mul(cz, sw)), cz, tol) {
		t.Error("CZ is not symmetric under qubit exchange")
	}
}

func TestRandomUnitaryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + int(uint64(seed)%3)
		u := RandomUnitary(k, r)
		return u.IsUnitary(1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRandomDiagonalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + int(uint64(seed)%3)
		u := RandomDiagonal(k, r)
		return u.IsUnitary(1e-9) && u.IsDiagonal(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestEqualUpToGlobalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u := RandomUnitary(2, rng)
	phased := New(2)
	for i, x := range u.Data {
		phased.Data[i] = cmplx.Exp(complex(0, 1.234)) * x
	}
	if !EqualUpToGlobalPhase(phased, u, 1e-10) {
		t.Error("scaled matrix should equal original up to phase")
	}
	if EqualUpToGlobalPhase(u, RandomUnitary(2, rng), 1e-10) {
		t.Error("two independent random unitaries should differ")
	}
	if !EqualUpToGlobalPhase(New(1), New(1), 1e-10) {
		t.Error("zero matrices should compare equal")
	}
}

func TestDiagonalEntries(t *testing.T) {
	d := T().Diagonal()
	if d[0] != 1 {
		t.Errorf("T diagonal[0] = %v", d[0])
	}
	want := cmplx.Exp(1i * math.Pi / 4)
	if cmplx.Abs(d[1]-want) > tol {
		t.Errorf("T diagonal[1] = %v, want %v", d[1], want)
	}
}
