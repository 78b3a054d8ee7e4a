// Package qusim is a distributed full-state-vector quantum circuit
// simulator reproducing "0.5 Petabyte Simulation of a 45-Qubit Quantum
// Circuit" (Häner & Steiger, SC 2017). It provides:
//
//   - a circuit IR with the standard supremacy-circuit gate set and
//     generators for Google's random supremacy circuits, QFT, GHZ and
//     Grover (package internal/circuit, re-exported here);
//   - optimized in-place k-qubit gate kernels written by a code generator
//     like the paper's: AVX-512 or AVX2+FMA assembly where the CPU has it,
//     pure Go of the same FMA order elsewhere (internal/kernels, internal/statevec);
//   - the circuit scheduler of Sec. 3.6: communication-minimizing stages,
//     gate fusion into k ≤ kmax clusters, and qubit mapping
//     (internal/schedule);
//   - a simulated-MPI distributed engine implementing the global-to-local
//     swap scheme with gate specialization (internal/mpi, internal/dist);
//   - analytic roofline and network models used to project results to the
//     paper's Cori II / Edison configurations (internal/perfmodel).
//
// Quick start:
//
//	c := qusim.Supremacy(qusim.SupremacyOptions{Rows: 4, Cols: 4, Depth: 16, Seed: 1})
//	st := qusim.NewState(c.N)
//	qusim.Simulate(c, st)
//	fmt.Println(st.Entropy())
//
// Distributed (8 simulated ranks):
//
//	plan, _ := qusim.Schedule(c, qusim.DefaultScheduleOptions(c.N-3))
//	res, _ := qusim.RunDistributed(plan, qusim.DistOptions{Ranks: 8})
package qusim

import (
	"math/rand"

	"qusim/internal/circuit"
	"qusim/internal/dist"
	"qusim/internal/emulate"
	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/noise"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/xeb"
)

// Circuit types and generators.
type (
	// Circuit is an ordered list of gates on N qubits.
	Circuit = circuit.Circuit
	// Gate is a single circuit operation.
	Gate = circuit.Gate
	// SupremacyOptions configures the random supremacy-circuit generator
	// (Fig. 1 of the paper).
	SupremacyOptions = circuit.SupremacyOptions
	// Matrix is a dense unitary on K qubits.
	Matrix = gate.Matrix
)

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit { return circuit.NewCircuit(n) }

// Supremacy generates a Google-style random supremacy circuit.
func Supremacy(opts SupremacyOptions) *Circuit { return circuit.Supremacy(opts) }

// QFT returns the quantum Fourier transform circuit on n qubits.
func QFT(n int) *Circuit { return circuit.QFT(n) }

// GHZ returns the GHZ-state preparation circuit on n qubits.
func GHZ(n int) *Circuit { return circuit.GHZ(n) }

// Grover returns iters Grover iterations searching for basis state marked.
func Grover(n, marked, iters int) *Circuit { return circuit.Grover(n, marked, iters) }

// GridForQubits returns the paper's grid shape for a qubit count
// (30 → 6×5, 36 → 6×6, 42 → 7×6, 45 → 9×5, 49 → 7×7).
func GridForQubits(n int) (rows, cols int) { return circuit.GridForQubits(n) }

// Gate constructors (see internal/circuit for the full set).
var (
	H     = circuit.NewH
	X     = circuit.NewX
	Y     = circuit.NewY
	Z     = circuit.NewZ
	S     = circuit.NewS
	T     = circuit.NewT
	XHalf = circuit.NewXHalf
	YHalf = circuit.NewYHalf
	Rz    = circuit.NewRz
	CZ    = circuit.NewCZ
	CNOT  = circuit.NewCNOT
	Swap  = circuit.NewSwap
)

// State is a single-node state vector of 2^n amplitudes.
type State = statevec.Vector

// NewState returns |0…0⟩ on n qubits.
func NewState(n int) *State { return statevec.New(n) }

// NewUniformState returns the uniform superposition — the direct
// initialization replacing the supremacy circuits' initial Hadamard cycle.
func NewUniformState(n int) *State { return statevec.NewUniform(n) }

// Simulate applies every gate of c to st, gate by gate (no scheduling).
func Simulate(c *Circuit, st *State) {
	for i := range c.Gates {
		g := &c.Gates[i]
		st.Apply(g.Matrix(), g.Qubits...)
	}
}

// Scheduling.
type (
	// Plan is a scheduled, executable form of a circuit.
	Plan = schedule.Plan
	// ScheduleOptions configures the scheduler (Sec. 3.6).
	ScheduleOptions = schedule.Options
	// CostTable is the kernels' price list ScheduleOptions.Costs takes.
	CostTable = schedule.CostTable
	// PlanStats summarizes swaps, clusters and baseline comparisons.
	PlanStats = schedule.Stats
)

// DefaultScheduleOptions returns the paper's scheduling choices with the
// given number of local qubits, fusing gates as far as the benchmarked cost
// of this repository's kernels makes worthwhile (kmax = 5 is only the cap).
func DefaultScheduleOptions(localQubits int) ScheduleOptions {
	return schedule.DefaultOptions(localQubits)
}

// Schedule builds an execution plan for c.
func Schedule(c *Circuit, opts ScheduleOptions) (*Plan, error) { return schedule.Build(c, opts) }

// Distributed execution.
type (
	// DistOptions configures a distributed run across simulated MPI ranks.
	DistOptions = dist.Options
	// DistResult reports entropy, norm and communication statistics.
	DistResult = dist.Result
	// BaselineOptions configures the per-gate reference scheme of [5].
	BaselineOptions = dist.BaselineOptions
)

// Initial-state selectors for distributed runs.
const (
	InitZero    = dist.InitZero
	InitUniform = dist.InitUniform
)

// RunDistributed executes a plan across opts.Ranks simulated MPI ranks.
func RunDistributed(plan *Plan, opts DistOptions) (*DistResult, error) {
	return dist.Run(plan, opts)
}

// RunBaseline executes a circuit with the per-gate communication scheme the
// paper compares against.
func RunBaseline(c *Circuit, opts BaselineOptions) (*DistResult, error) {
	return dist.RunBaseline(c, opts)
}

// Tune times this machine's kernels for gate sizes 1…kmax on a
// 2^n-amplitude scratch state (what is left of the paper's
// code-generation/benchmarking feedback loop) and returns the cost table to
// schedule with: set it as ScheduleOptions.Costs. Nothing is installed.
func Tune(kmax, n int) CostTable {
	return schedule.CostsFromTune(kernels.Tune(kmax, n, 2))
}

// Noise and benchmarking (the calibration/validation use cases of Sec. 1).
type (
	// NoiseChannel is a stochastic single-qubit Pauli channel.
	NoiseChannel = noise.Channel
	// NoiseResult aggregates a Monte Carlo trajectory study.
	NoiseResult = noise.Result
)

// DepolarizingNoise returns the depolarizing channel with total error
// probability p per gate-qubit.
func DepolarizingNoise(p float64) NoiseChannel { return noise.Depolarizing(p) }

// SimulateNoisy runs Monte Carlo noise trajectories of c and reports the
// mean fidelity and trajectory-averaged output distribution.
func SimulateNoisy(c *Circuit, ch NoiseChannel, trajectories int, rng *rand.Rand) (*NoiseResult, error) {
	return noise.Run(c, ch, trajectories, rng)
}

// PorterThomasEntropy returns the expected output entropy (nats) of a
// chaotic n-qubit circuit.
func PorterThomasEntropy(n int) float64 { return xeb.PorterThomasEntropy(n) }

// LinearXEB returns the linear cross-entropy benchmarking fidelity of the
// samples against the ideal probabilities.
func LinearXEB(n int, probs []float64, samples []int) (float64, error) {
	return xeb.LinearXEB(n, probs, samples)
}

// EmulateQFT applies the quantum Fourier transform via an FFT over the
// amplitudes — the classical shortcut of [7], inapplicable to supremacy
// circuits but far faster than gate-by-gate QFT simulation. The result
// matches Simulate(QFT(n), st) (gate convention, no bit reversal).
func EmulateQFT(st *State) { emulate.QFT(st) }
