package gate

import (
	"math"
	"math/rand"
	"testing"
)

func TestRotationComposition(t *testing.T) {
	// Rz(a)·Rz(b) = Rz(a+b); same for Rx, Ry.
	for name, f := range map[string]func(float64) Matrix{"Rx": Rx, "Ry": Ry, "Rz": Rz} {
		a, b := 0.7, 1.9
		got := Mul(f(a), f(b))
		want := f(a + b)
		if !ApproxEqual(got, want, 1e-12) {
			t.Errorf("%s(a)·%s(b) != %s(a+b)", name, name, name)
		}
	}
}

func TestRotationFullTurn(t *testing.T) {
	// A 2π rotation is −1 (spinor sign), 4π is +1.
	for name, f := range map[string]func(float64) Matrix{"Rx": Rx, "Ry": Ry, "Rz": Rz} {
		if !ApproxEqual(f(4*math.Pi), Identity(1), 1e-12) {
			t.Errorf("%s(4π) != I", name)
		}
		if !ApproxEqual(f(2*math.Pi), FromRows([][]complex128{{-1, 0}, {0, -1}}), 1e-12) {
			t.Errorf("%s(2π) != −I", name)
		}
	}
}

func TestPhaseVsRz(t *testing.T) {
	// Phase(θ) equals Rz(θ) up to global phase.
	if !EqualUpToGlobalPhase(Phase(0.9), Rz(0.9), 1e-12) {
		t.Error("Phase(θ) and Rz(θ) differ beyond global phase")
	}
}

func TestKronAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	a, b, c := RandomUnitary(1, rng), RandomUnitary(1, rng), RandomUnitary(1, rng)
	lhs := Kron(Kron(a, b), c)
	rhs := Kron(a, Kron(b, c))
	if !ApproxEqual(lhs, rhs, 1e-12) {
		t.Error("(a⊗b)⊗c != a⊗(b⊗c)")
	}
}

func TestKronOfUnitariesIsUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	a, b := RandomUnitary(2, rng), RandomUnitary(1, rng)
	if !Kron(a, b).IsUnitary(1e-9) {
		t.Error("Kron of unitaries not unitary")
	}
}

func TestMulNonCommutative(t *testing.T) {
	if ApproxEqual(Mul(H(), T()), Mul(T(), H()), 1e-12) {
		t.Error("H and T unexpectedly commute")
	}
}

func TestSwapConjugation(t *testing.T) {
	// SWAP·(A⊗B)·SWAP = B⊗A.
	rng := rand.New(rand.NewSource(122))
	a, b := RandomUnitary(1, rng), RandomUnitary(1, rng)
	lhs := Mul(Swap(), Mul(Kron(a, b), Swap()))
	rhs := Kron(b, a)
	if !ApproxEqual(lhs, rhs, 1e-10) {
		t.Error("SWAP conjugation does not swap tensor factors")
	}
}

func TestDaggerOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	a, b := RandomUnitary(2, rng), RandomUnitary(2, rng)
	lhs := Mul(a, b).Dagger()
	rhs := Mul(b.Dagger(), a.Dagger())
	if !ApproxEqual(lhs, rhs, 1e-10) {
		t.Error("(ab)† != b†a†")
	}
}

func TestIdentityZeroQubits(t *testing.T) {
	id := Identity(0)
	if id.Dim() != 1 || id.Data[0] != 1 {
		t.Errorf("Identity(0) = %v", id)
	}
	// Kron with the scalar identity is a no-op.
	h := H()
	if !ApproxEqual(Kron(id, h), h, 1e-15) || !ApproxEqual(Kron(h, id), h, 1e-15) {
		t.Error("Kron with Identity(0) changed the matrix")
	}
}
