package verify

import (
	"fmt"
	"math"
	"math/rand"

	"qusim/internal/circuit"
)

// Seeded circuit generation for the differential matrix. Unlike
// circuit.RandomCircuit these draw only from the text-serializable gate
// set, so every divergence can be reported as a replayable reproducer via
// circuit.WriteText, and every generated circuit has an exact inverse for
// the round-trip metamorphic property.

// RandomOptions configures Random.
type RandomOptions struct {
	Qubits int
	Gates  int
	Seed   int64
	// DenseEntanglers includes CNOT and SWAP — dense two-qubit gates the
	// per-gate baseline scheme cannot execute on global qubits (such
	// circuits are skipped by that backend). Without it the entanglers are
	// the diagonal CZ/CPhase, matching the supremacy-circuit structure, and
	// every backend can run the circuit.
	DenseEntanglers bool
}

// Random returns a seeded random circuit over the serializable gate set
// with roughly one third two-qubit entanglers.
func Random(opts RandomOptions) *circuit.Circuit {
	n, gates := opts.Qubits, opts.Gates
	if n < 2 {
		panic("verify: Random needs at least 2 qubits")
	}
	rng := rand.New(rand.NewSource(opts.Seed*2654435761 + 1))
	c := circuit.NewCircuit(n)
	kind := "cz"
	if opts.DenseEntanglers {
		kind = "dense"
	}
	c.Name = fmt.Sprintf("random-%s_n%d_g%d_s%d", kind, n, gates, opts.Seed)
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		p := rng.Intn(n - 1)
		if p >= q {
			p++
		}
		theta := (rng.Float64()*2 - 1) * math.Pi
		switch rng.Intn(12) {
		case 0:
			c.Append(circuit.NewH(q))
		case 1:
			c.Append(circuit.NewX(q))
		case 2:
			c.Append(circuit.NewY(q))
		case 3:
			c.Append(circuit.NewS(q))
		case 4:
			c.Append(circuit.NewT(q))
		case 5:
			c.Append(circuit.NewXHalf(q))
		case 6:
			c.Append(circuit.NewYHalf(q))
		case 7:
			c.Append(circuit.NewRz(q, theta))
		case 8:
			c.Append(circuit.NewPhase(q, theta))
		case 9, 10:
			if opts.DenseEntanglers && rng.Intn(2) == 0 {
				if rng.Intn(2) == 0 {
					c.Append(circuit.NewCNOT(q, p))
				} else {
					c.Append(circuit.NewSwap(q, p))
				}
			} else {
				c.Append(circuit.NewCZ(q, p))
			}
		case 11:
			c.Append(circuit.NewCPhase(q, p, theta))
		}
	}
	return c
}

// Library returns the named circuit families drawn into the differential
// matrix alongside the random circuits: QFT, GHZ, Bernstein-Vazirani,
// Grover, and a supremacy instance on the most-square grid for n qubits.
func Library(n int, seed int64) []*circuit.Circuit {
	rows, cols := circuit.GridForQubits(n)
	sup := circuit.Supremacy(circuit.SupremacyOptions{
		Rows: rows, Cols: cols, Depth: 12, Seed: seed,
	})
	grover := circuit.Grover(n, int(uint64(seed)%(1<<uint(n))), 2)
	return []*circuit.Circuit{
		circuit.QFT(n),
		circuit.GHZ(n),
		circuit.BernsteinVazirani(n, int(uint64(seed)*7%(1<<uint(n-1)))),
		grover,
		sup,
	}
}

// Catalog returns small instances of the application circuit families —
// QAOA MaxCut on a ring, the hardware-efficient VQE ansatz, and a
// Pauli-noise-injected supremacy trajectory — so every backend in the
// differential matrix is exercised on the variational and noisy shapes
// the simulator serves beyond random circuits. All three draw only from
// the serializable, invertible gate set.
func Catalog(n int, seed int64) []*circuit.Circuit {
	sets := circuit.SweepParams(seed+300, 2, 4)
	qaoa := circuit.QAOAMaxCutRing(n, sets[1][:2], sets[1][2:])
	vqe := circuit.HardwareEfficientAnsatz(n, 2, circuit.SweepParams(seed+400, 2, 2*n)[1])
	rows, cols := circuit.GridForQubits(n)
	sup := circuit.Supremacy(circuit.SupremacyOptions{
		Rows: rows, Cols: cols, Depth: 10, Seed: seed + 200,
	})
	return []*circuit.Circuit{
		qaoa,
		vqe,
		circuit.InjectPauliNoise(sup, 0.02, seed+500),
	}
}

// Inverse returns the exact inverse circuit, for the run-then-undo
// metamorphic property. All serializable kinds plus custom diagonal and
// unitary gates are supported; it errors on kinds it cannot invert.
func Inverse(c *circuit.Circuit) (*circuit.Circuit, error) {
	inv := circuit.NewCircuit(c.N)
	inv.Name = c.Name + "-inverse"
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := c.Gates[i]
		switch g.Kind {
		case circuit.KindH, circuit.KindX, circuit.KindY, circuit.KindZ,
			circuit.KindCZ, circuit.KindCNOT, circuit.KindSwap:
			inv.Append(g) // self-inverse
		case circuit.KindS:
			inv.Append(circuit.NewPhase(g.Qubits[0], -math.Pi/2))
		case circuit.KindT:
			inv.Append(circuit.NewPhase(g.Qubits[0], -math.Pi/4))
		case circuit.KindXHalf:
			// (X^1/2)⁻¹ = X^3/2 = X · X^1/2.
			inv.Append(circuit.NewXHalf(g.Qubits[0]), circuit.NewX(g.Qubits[0]))
		case circuit.KindYHalf:
			inv.Append(circuit.NewYHalf(g.Qubits[0]), circuit.NewY(g.Qubits[0]))
		case circuit.KindRz:
			inv.Append(circuit.NewRz(g.Qubits[0], -g.Param))
		case circuit.KindPhase:
			inv.Append(circuit.NewPhase(g.Qubits[0], -g.Param))
		case circuit.KindCPhase:
			inv.Append(circuit.NewCPhase(g.Qubits[0], g.Qubits[1], -g.Param))
		default:
			return nil, fmt.Errorf("verify: cannot invert gate %v", g)
		}
	}
	return inv, nil
}

// Relabel returns the circuit with qubit q renamed to perm[q] — the
// conjugation side of the qubit-permutation metamorphic property.
func Relabel(c *circuit.Circuit, perm []int) *circuit.Circuit {
	out := circuit.NewCircuit(c.N)
	out.Name = c.Name + "-relabeled"
	for _, g := range c.Gates {
		qs := make([]int, len(g.Qubits))
		for i, q := range g.Qubits {
			qs[i] = perm[q]
		}
		ng := g
		ng.Qubits = qs
		out.Append(ng)
	}
	return out
}

// PermuteIndex moves bit q of b to bit perm[q] — how basis states transform
// under Relabel.
func PermuteIndex(b int, perm []int) int {
	out := 0
	for q, p := range perm {
		if b&(1<<q) != 0 {
			out |= 1 << p
		}
	}
	return out
}
