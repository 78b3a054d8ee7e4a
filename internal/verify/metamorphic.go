package verify

import (
	"fmt"
	"math/rand"

	"qusim/internal/circuit"
	"qusim/internal/statevec"
)

// Metamorphic properties: correctness invariants that need no reference
// backend — unitarity keeps the norm at 1, algebraic gate identities hold on
// arbitrary states, trivially-commuting gates may be reordered, and a
// uniform qubit relabeling conjugates the output distribution. A violation
// localizes a bug even when every backend is wrong in the same way, which
// differential testing cannot see.

// Property is one named metamorphic check.
type Property struct {
	Name  string
	Check func() error
}

// metamorphicTol bounds the drift allowed from pure float noise; the
// checks run on ≤ a few hundred gates, far below accumulation at 1e-10.
const metamorphicTol = 1e-10

// Properties returns the full metamorphic suite on n qubits, seeded.
func Properties(n int, seed int64) []Property {
	return []Property{
		{"norm-preservation", func() error { return checkNormPreservation(n, seed) }},
		{"gate-identities", func() error { return checkGateIdentities(n, seed) }},
		{"inverse-round-trip", func() error { return checkInverseRoundTrip(n, seed) }},
		{"commuting-reorder", func() error { return checkCommutingReorder(n, seed) }},
		{"permutation-conjugation", func() error { return checkPermutationConjugation(n, seed) }},
	}
}

// runCircuit applies c gate-by-gate on v.
func runCircuit(v *statevec.Vector, c *circuit.Circuit) {
	for i := range c.Gates {
		g := &c.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
	}
}

// randomState returns a seeded random normalized state.
func randomState(n int, rng *rand.Rand) *statevec.Vector {
	v := statevec.New(n)
	for i := range v.Amps {
		v.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	v.Renormalize()
	return v
}

// checkNormPreservation runs seeded random circuits through the reference
// kernel and this machine's and asserts Σ|α|² stays 1.
func checkNormPreservation(n int, seed int64) error {
	for trial := int64(0); trial < 4; trial++ {
		c := Random(RandomOptions{Qubits: n, Gates: 12 * n, Seed: seed + trial, DenseEntanglers: true})
		for _, b := range []Backend{Naive(), Kernel()} {
			amps, err := b.Run(c)
			if err != nil {
				return err
			}
			var norm float64
			for _, a := range amps {
				norm += real(a)*real(a) + imag(a)*imag(a)
			}
			if d := norm - 1; d > metamorphicTol || d < -metamorphicTol {
				return fmt.Errorf("%s: norm %v after %s", b.Name(), norm, c.Name)
			}
		}
	}
	return nil
}

// checkGateIdentities verifies algebraic identities on a random state: two
// gate sequences that are equal as operators must produce identical states.
func checkGateIdentities(n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	a, b := rng.Intn(n), rng.Intn(n-1)
	if b >= a {
		b++
	}
	identities := []struct {
		name string
		lhs  []circuit.Gate
		rhs  []circuit.Gate
	}{
		{"HH=I", []circuit.Gate{circuit.NewH(a), circuit.NewH(a)}, nil},
		{"XX=I", []circuit.Gate{circuit.NewX(a), circuit.NewX(a)}, nil},
		{"SS=Z", []circuit.Gate{circuit.NewS(a), circuit.NewS(a)}, []circuit.Gate{circuit.NewZ(a)}},
		{"TT=S", []circuit.Gate{circuit.NewT(a), circuit.NewT(a)}, []circuit.Gate{circuit.NewS(a)}},
		{"T⁴=S²", []circuit.Gate{circuit.NewT(a), circuit.NewT(a), circuit.NewT(a), circuit.NewT(a)},
			[]circuit.Gate{circuit.NewS(a), circuit.NewS(a)}},
		{"XHalf²=X", []circuit.Gate{circuit.NewXHalf(a), circuit.NewXHalf(a)}, []circuit.Gate{circuit.NewX(a)}},
		{"YHalf²=Y", []circuit.Gate{circuit.NewYHalf(a), circuit.NewYHalf(a)}, []circuit.Gate{circuit.NewY(a)}},
		{"CZ-symmetry", []circuit.Gate{circuit.NewCZ(a, b)}, []circuit.Gate{circuit.NewCZ(b, a)}},
		{"CNOT²=I", []circuit.Gate{circuit.NewCNOT(a, b), circuit.NewCNOT(a, b)}, nil},
		{"SWAP²=I", []circuit.Gate{circuit.NewSwap(a, b), circuit.NewSwap(b, a)}, nil},
		{"HZH=X", []circuit.Gate{circuit.NewH(a), circuit.NewZ(a), circuit.NewH(a)},
			[]circuit.Gate{circuit.NewX(a)}},
	}
	for _, id := range identities {
		base := randomState(n, rng)
		lhs, rhs := base.Clone(), base.Clone()
		for _, g := range id.lhs {
			lhs.Apply(g.Matrix(), g.Qubits...)
		}
		for _, g := range id.rhs {
			rhs.Apply(g.Matrix(), g.Qubits...)
		}
		if d := lhs.MaxDiff(rhs); d > metamorphicTol {
			return fmt.Errorf("identity %s violated on qubits (%d,%d): max diff %g", id.name, a, b, d)
		}
	}
	return nil
}

// checkInverseRoundTrip runs a random circuit followed by its exact inverse
// and asserts the state returns to |0…0⟩.
func checkInverseRoundTrip(n int, seed int64) error {
	for trial := int64(0); trial < 4; trial++ {
		c := Random(RandomOptions{Qubits: n, Gates: 10 * n, Seed: seed + 100 + trial, DenseEntanglers: true})
		inv, err := Inverse(c)
		if err != nil {
			return err
		}
		v := statevec.New(n)
		runCircuit(v, c)
		runCircuit(v, inv)
		want := statevec.New(n)
		if d := v.MaxDiff(want); d > metamorphicTol {
			return fmt.Errorf("%s ∘ inverse differs from identity by %g", c.Name, d)
		}
	}
	return nil
}

// checkCommutingReorder swaps adjacent gates acting on disjoint qubits —
// a reorder every scheduler stage is allowed to make — and asserts the
// final state is unchanged.
func checkCommutingReorder(n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed*17 + 3))
	for trial := 0; trial < 4; trial++ {
		c := Random(RandomOptions{Qubits: n, Gates: 12 * n, Seed: seed + 200 + int64(trial), DenseEntanglers: true})
		re := circuit.NewCircuit(n)
		re.Name = c.Name + "-reordered"
		re.Gates = append(re.Gates, c.Gates...)
		swaps := 0
		for pass := 0; pass < 3; pass++ {
			for i := 0; i+1 < len(re.Gates); i++ {
				if rng.Intn(2) == 0 {
					continue
				}
				if !disjointQubits(&re.Gates[i], &re.Gates[i+1]) {
					continue
				}
				re.Gates[i], re.Gates[i+1] = re.Gates[i+1], re.Gates[i]
				swaps++
			}
		}
		if swaps == 0 {
			continue
		}
		v1, v2 := statevec.New(n), statevec.New(n)
		runCircuit(v1, c)
		runCircuit(v2, re)
		if d := v1.MaxDiff(v2); d > metamorphicTol {
			return fmt.Errorf("%s: %d commuting swaps changed the state by %g", c.Name, swaps, d)
		}
	}
	return nil
}

func disjointQubits(a, b *circuit.Gate) bool {
	for _, qa := range a.Qubits {
		for _, qb := range b.Qubits {
			if qa == qb {
				return false
			}
		}
	}
	return true
}

// checkPermutationConjugation relabels the circuit's qubits by a random
// permutation π and asserts the output transforms covariantly:
// amplitudes satisfy w[π(b)] = v[b] (|0…0⟩ is permutation-invariant).
func checkPermutationConjugation(n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed*13 + 5))
	for trial := 0; trial < 4; trial++ {
		c := Random(RandomOptions{Qubits: n, Gates: 10 * n, Seed: seed + 300 + int64(trial), DenseEntanglers: true})
		perm := rng.Perm(n)
		rc := Relabel(c, perm)
		v, w := statevec.New(n), statevec.New(n)
		runCircuit(v, c)
		runCircuit(w, rc)
		var maxd float64
		for bb := range v.Amps {
			d := v.Amps[bb] - w.Amps[PermuteIndex(bb, perm)]
			if ab := real(d)*real(d) + imag(d)*imag(d); ab > maxd {
				maxd = ab
			}
		}
		if maxd > metamorphicTol*metamorphicTol {
			return fmt.Errorf("%s: permutation conjugation violated under π=%v", c.Name, perm)
		}
	}
	return nil
}
