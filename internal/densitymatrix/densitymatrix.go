// Package densitymatrix implements an exact mixed-state simulator for
// small systems. It represents the density matrix ρ of an n-qubit system
// as a 2n-qubit state vector (column-major vectorization), so every gate
// and Kraus operator application reuses the optimized k-qubit kernels:
//
//	ρ → UρU†        becomes   apply U on bits q, and Ū on bits q+n;
//	ρ → Σ_k K ρ K†  becomes   a sum over branches of the same.
//
// Its purpose in this repository is validation: the Monte Carlo trajectory
// noise engine (package noise) must converge to the exact channel
// evolution computed here — the ground truth for the paper's
// "behavior under noise" use case (Sec. 1). Memory is 4^n amplitudes, so
// it is practical to ~12 qubits; the trajectory method then extends the
// same physics to the scale of the state-vector simulator.
package densitymatrix

import (
	"fmt"
	"math"
	"math/cmplx"

	"qusim/internal/circuit"
	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/noise"
	"qusim/internal/statevec"
)

// Matrix is the density matrix of an n-qubit system, stored as the
// vectorized 4^n-amplitude array: entry ρ[r][c] lives at index c·2^n + r
// (row index in the low n bits).
type Matrix struct {
	N   int
	Vec []complex128
}

// New returns ρ = |0…0⟩⟨0…0|.
func New(n int) *Matrix {
	if n < 0 || n > 15 {
		panic(fmt.Sprintf("densitymatrix: unsupported qubit count %d", n))
	}
	m := &Matrix{N: n, Vec: make([]complex128, 1<<(2*n))}
	m.Vec[0] = 1
	return m
}

// FromPure returns ρ = |ψ⟩⟨ψ|.
func FromPure(v *statevec.Vector) *Matrix {
	m := New(v.N)
	d := 1 << v.N
	for c := 0; c < d; c++ {
		for r := 0; r < d; r++ {
			m.Vec[c*d+r] = v.Amps[r] * cmplx.Conj(v.Amps[c])
		}
	}
	return m
}

// At returns ρ[r][c].
func (m *Matrix) At(r, c int) complex128 { return m.Vec[c<<m.N+r] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{N: m.N, Vec: make([]complex128, len(m.Vec))}
	copy(c.Vec, m.Vec)
	return c
}

// rowPositions maps qubit q of the system to bit q of the vectorized
// index; colPositions to bit q+n.
func (m *Matrix) rowPositions(qubits []int) []int {
	return append([]int(nil), qubits...)
}

func (m *Matrix) colPositions(qubits []int) []int {
	out := make([]int, len(qubits))
	for i, q := range qubits {
		out[i] = q + m.N
	}
	return out
}

func conjugate(u gate.Matrix) gate.Matrix {
	out := u.Clone()
	for i, v := range out.Data {
		out.Data[i] = cmplx.Conj(v)
	}
	return out
}

// Apply evolves ρ → UρU† for a gate on the given qubits.
func (m *Matrix) Apply(u gate.Matrix, qubits ...int) {
	sv := statevec.FromAmplitudes(m.Vec)
	sv.Apply(u, m.rowPositions(qubits)...)
	sv.Apply(conjugate(u), m.colPositions(qubits)...)
	m.Vec = sv.Amps
}

// ApplyCircuit runs every gate of a circuit.
func (m *Matrix) ApplyCircuit(c *circuit.Circuit) {
	for i := range c.Gates {
		g := &c.Gates[i]
		m.Apply(g.Matrix(), g.Qubits...)
	}
}

// ApplyKraus evolves ρ → Σ_k K_k ρ K_k† on one qubit. The Kraus operators
// need not be unitary; they must satisfy Σ K†K = 1 for trace preservation
// (checked to tol 1e-9).
func (m *Matrix) ApplyKraus(ops []gate.Matrix, q int) {
	if len(ops) == 0 {
		panic("densitymatrix: empty Kraus set")
	}
	var sum gate.Matrix
	for i, k := range ops {
		if k.K != 1 {
			panic("densitymatrix: only single-qubit Kraus operators supported")
		}
		p := gate.Mul(k.Dagger(), k)
		if i == 0 {
			sum = p
		} else {
			for j := range sum.Data {
				sum.Data[j] += p.Data[j]
			}
		}
	}
	if !gate.ApproxEqual(sum, gate.Identity(1), 1e-9) {
		panic("densitymatrix: Kraus operators do not satisfy ΣK†K = 1")
	}
	acc := make([]complex128, len(m.Vec))
	branch := make([]complex128, len(m.Vec))
	for _, k := range ops {
		copy(branch, m.Vec)
		kernels.Apply(branch, k.Data, []int{q})
		kernels.Apply(branch, conjugate(k).Data, []int{q + m.N})
		for i := range acc {
			acc[i] += branch[i]
		}
	}
	copy(m.Vec, acc)
}

// ApplyChannel applies a stochastic Pauli channel exactly (the channel
// package noise samples by trajectories).
func (m *Matrix) ApplyChannel(ch noise.Channel, q int) {
	pi := 1 - ch.PX - ch.PY - ch.PZ
	ops := []gate.Matrix{
		gate.Identity(1).Scale(complex(math.Sqrt(pi), 0)),
		gate.X().Scale(complex(math.Sqrt(ch.PX), 0)),
		gate.Y().Scale(complex(math.Sqrt(ch.PY), 0)),
		gate.Z().Scale(complex(math.Sqrt(ch.PZ), 0)),
	}
	m.ApplyKraus(ops, q)
}

// AmplitudeDamping returns the Kraus pair of the T1 decay channel with
// decay probability gamma.
func AmplitudeDamping(gamma float64) []gate.Matrix {
	k0 := gate.Identity(1)
	k0.Set(1, 1, complex(math.Sqrt(1-gamma), 0))
	k1 := gate.New(1)
	k1.Set(0, 1, complex(math.Sqrt(gamma), 0))
	return []gate.Matrix{k0, k1}
}

// Trace returns Tr ρ (1 for a valid state).
func (m *Matrix) Trace() complex128 {
	d := 1 << m.N
	var t complex128
	for i := 0; i < d; i++ {
		t += m.Vec[i<<m.N+i]
	}
	return t
}

// Purity returns Tr ρ² (1 for pure states, 1/2^n for the maximally mixed
// state).
func (m *Matrix) Purity() float64 {
	// Tr ρ² = Σ_{r,c} ρ[r][c]·ρ[c][r] = Σ |ρ[r][c]|² for Hermitian ρ.
	var s float64
	for _, v := range m.Vec {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// Probabilities returns the diagonal of ρ.
func (m *Matrix) Probabilities() []float64 {
	d := 1 << m.N
	out := make([]float64, d)
	for i := 0; i < d; i++ {
		out[i] = real(m.Vec[i<<m.N+i])
	}
	return out
}

// Fidelity returns ⟨ψ|ρ|ψ⟩ against a pure reference state.
func (m *Matrix) Fidelity(psi *statevec.Vector) float64 {
	d := 1 << m.N
	var f complex128
	for c := 0; c < d; c++ {
		var row complex128
		for r := 0; r < d; r++ {
			row += cmplx.Conj(psi.Amps[r]) * m.Vec[c<<m.N+r]
		}
		f += row * psi.Amps[c]
	}
	return real(f)
}

// RunNoisy evolves the circuit with the channel applied exactly after each
// gate on each touched qubit — the exact counterpart of noise.Trajectory.
func RunNoisy(c *circuit.Circuit, ch noise.Channel, uniformInit bool) (*Matrix, error) {
	var m *Matrix
	if uniformInit {
		m = FromPure(statevec.NewUniform(c.N))
	} else {
		m = New(c.N)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		m.Apply(g.Matrix(), g.Qubits...)
		for _, q := range g.Qubits {
			m.ApplyChannel(ch, q)
		}
	}
	return m, nil
}
