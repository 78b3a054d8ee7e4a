package circuit

import (
	"math"
	"math/bits"

	"qusim/internal/par"
)

// Parameterized ansatz generators for the variational circuit families
// (QAOA and VQE): the repository benchmark's qaoa16-sweep workload times the
// QAOA family, and verify.Catalog runs both through every backend. Both
// emit only text-serializable gates (H, Rz, Phase, S, CZ, CPhase), so every
// instance can be written as a reproducer, inverted for the metamorphic
// round-trip, and executed by every backend including the per-gate
// baseline: the entanglers are diagonal. Their gate *structure* is
// independent of the parameter values — only Gate.Param changes between
// sweep points.

// RingEdges returns the n edges of the n-vertex ring graph (i, i+1 mod n)
// used by the QAOA MaxCut workload. For n = 2 the single edge is returned
// once.
func RingEdges(n int) []Bond {
	if n < 2 {
		return nil
	}
	if n == 2 {
		return []Bond{{A: 0, B: 1}}
	}
	edges := make([]Bond, n)
	for i := 0; i < n; i++ {
		a, b := i, (i+1)%n
		if a > b {
			a, b = b, a
		}
		edges[i] = Bond{A: a, B: b}
	}
	return edges
}

// QAOAMaxCutRing returns the depth-p QAOA circuit for MaxCut on the
// n-vertex ring: an initial Hadamard layer, then for each layer l the cost
// unitary exp(−iγ_l·C) followed by the mixer exp(−iβ_l·ΣX).
//
// The cost phase for edge (a,b) — e^{−iγ} exactly when the endpoints
// disagree — is synthesized from diagonal gates as
// Phase(a,−γ)·Phase(b,−γ)·CPhase(a,b,2γ), and the mixer Rx(2β) on each
// qubit as the exact identity H·Rz(2β)·H, keeping the whole circuit inside
// the serializable gate set.
func QAOAMaxCutRing(n int, gammas, betas []float64) *Circuit {
	if len(gammas) != len(betas) {
		panic("circuit: QAOA needs one gamma per beta")
	}
	c := NewCircuit(n)
	c.Name = "qaoa-maxcut-ring"
	edges := RingEdges(n)
	for q := 0; q < n; q++ {
		c.Append(NewH(q))
	}
	for l := range gammas {
		gamma, beta := gammas[l], betas[l]
		for _, e := range edges {
			c.Append(
				NewPhase(e.A, -gamma),
				NewPhase(e.B, -gamma),
				NewCPhase(e.A, e.B, 2*gamma),
			)
		}
		for q := 0; q < n; q++ {
			c.Append(NewH(q), NewRz(q, 2*beta), NewH(q))
		}
	}
	return c
}

// MaxCutExpectation returns ⟨C⟩ = Σ_(a,b) (1 − ⟨Z_a Z_b⟩)/2 over the given
// edges, evaluated from the (normalised) probability distribution probs of a
// state on the edge's qubits. The all-zero-parameter QAOA circuit leaves the
// uniform superposition untouched, so its exact value is len(edges)/2 — the
// workload's closed-form expectation anchor.
func MaxCutExpectation(probs []float64, edges []Bond) float64 {
	masks := make([]uint, len(edges))
	for i, e := range edges {
		masks[i] = 1<<e.A ^ 1<<e.B
	}
	// One pass: Σ_b p_b · (edges cut by b), an edge being cut when its two
	// bits differ — the parity of b under the edge's mask.
	return par.ReduceFloat64(len(probs), 1<<12, func(lo, hi int) float64 {
		var sum float64
		for b := lo; b < hi; b++ {
			cut := 0
			for _, m := range masks {
				cut += bits.OnesCount(uint(b)&m) & 1
			}
			sum += probs[b] * float64(cut)
		}
		return sum
	})
}

// HardwareEfficientAnsatz returns the layered VQE ansatz: per layer, one Ry
// rotation on every qubit followed by a CZ entangler ladder on neighbouring
// qubits. thetas holds layers×n angles, row-major (layer l, qubit q at
// l·n + q). Ry(θ) is synthesized exactly as S·H·Rz(θ)·H·S† (S X S† = Y), so
// the circuit stays in the serializable gate set. With all angles zero the
// rotations are identities and the CZ ladder fixes |0…0⟩: p(0) = 1 is the
// closed-form anchor.
func HardwareEfficientAnsatz(n, layers int, thetas []float64) *Circuit {
	if len(thetas) != layers*n {
		panic("circuit: ansatz needs layers*n angles")
	}
	c := NewCircuit(n)
	c.Name = "vqe-ansatz"
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			theta := thetas[l*n+q]
			c.Append(
				NewPhase(q, -math.Pi/2), // S†
				NewH(q),
				NewRz(q, theta),
				NewH(q),
				NewS(q),
			)
		}
		for q := 0; q+1 < n; q++ {
			c.Append(NewCZ(q, q+1))
		}
	}
	return c
}

// SweepParams derives count deterministic parameter vectors of length dim
// in [−π, π] from the seed. Vector 0 is always all zeros — the closed-form
// expectation anchor of the variational workloads; the rest are
// pseudo-random but exactly reproducible (the generator does not depend on
// math/rand's stream evolution across Go versions).
func SweepParams(seed int64, count, dim int) [][]float64 {
	rng := newPCG(seed*0x9e3779b9 + 0x7f4a7c15)
	out := make([][]float64, count)
	for i := range out {
		v := make([]float64, dim)
		if i > 0 {
			for j := range v {
				v[j] = (rng.float()*2 - 1) * math.Pi
			}
		}
		out[i] = v
	}
	return out
}

// InjectPauliNoise returns a copy of c with a seeded random Pauli inserted
// after each gate on each touched qubit with probability p — the circuit a
// single stochastic noise trajectory executes, materialized as a plain
// deterministic circuit so the differential harness can cross-check noisy
// instances across every backend. The insertion stream matches
// noise.Channel's depolarizing draw order (one uniform draw per touched
// qubit) but uses the version-stable generator local to this package.
func InjectPauliNoise(c *Circuit, p float64, seed int64) *Circuit {
	rng := newPCG(seed*0x2545f491 + 0x4d595df4)
	out := NewCircuit(c.N)
	out.Name = c.Name + "-noisy"
	for _, g := range c.Gates {
		out.Append(g)
		for _, q := range g.Qubits {
			r := rng.float()
			switch {
			case r < p/3:
				out.Append(NewX(q))
			case r < 2*p/3:
				out.Append(NewY(q))
			case r < p:
				out.Append(NewZ(q))
			}
		}
	}
	return out
}
