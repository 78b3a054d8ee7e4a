// Package noise provides Monte Carlo (quantum-trajectory) noise simulation
// on top of the state-vector simulator — the "studies of their behavior
// under noise" use case of Sec. 1 of Häner & Steiger, SC'17, and the
// mechanism behind the depolarization model that cross-entropy
// benchmarking (package xeb) assumes.
//
// Channels are applied stochastically: each trajectory inserts random Pauli
// errors after gates with the channel's probability, keeping the state a
// pure state vector (memory cost 2^n, like the noiseless simulator) rather
// than a 4^n density matrix. Averages over trajectories converge to the
// channel's action.
package noise

import (
	"fmt"
	"math/rand"

	"qusim/internal/circuit"
	"qusim/internal/gate"
	"qusim/internal/statevec"
)

// Channel is a single-qubit stochastic Pauli channel.
type Channel struct {
	Name string
	// PX, PY, PZ are the probabilities of inserting the respective Pauli
	// after each gate on each touched qubit. The identity happens with
	// probability 1 − PX − PY − PZ.
	PX, PY, PZ float64
}

// Depolarizing returns the channel that applies each Pauli with p/3.
func Depolarizing(p float64) Channel {
	return Channel{Name: "depolarizing", PX: p / 3, PY: p / 3, PZ: p / 3}
}

func (c Channel) validate() error {
	if c.PX < 0 || c.PY < 0 || c.PZ < 0 || c.PX+c.PY+c.PZ > 1 {
		return fmt.Errorf("noise: invalid channel probabilities (%v, %v, %v)", c.PX, c.PY, c.PZ)
	}
	return nil
}

// apply inserts a random Pauli on qubit q per the channel.
func (c Channel) apply(v *statevec.Vector, q int, rng *rand.Rand) {
	r := rng.Float64()
	switch {
	case r < c.PX:
		v.Apply(gate.X(), q)
	case r < c.PX+c.PY:
		v.Apply(gate.Y(), q)
	case r < c.PX+c.PY+c.PZ:
		v.Apply(gate.Z(), q)
	}
}

// Trajectory runs one noisy trajectory of the circuit from |0…0⟩ and
// returns the resulting pure state.
func Trajectory(c *circuit.Circuit, ch Channel, rng *rand.Rand) (*statevec.Vector, error) {
	if err := ch.validate(); err != nil {
		return nil, err
	}
	v := statevec.New(c.N)
	for i := range c.Gates {
		g := &c.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
		for _, q := range g.Qubits {
			ch.apply(v, q, rng)
		}
	}
	return v, nil
}

// Result aggregates a Monte Carlo noise study.
type Result struct {
	Trajectories int
	// MeanFidelity is ⟨|⟨ψ_ideal|ψ_traj⟩|²⟩ over trajectories.
	MeanFidelity float64
	// MeanProbs is the trajectory-averaged output distribution (the mixed
	// state's diagonal).
	MeanProbs []float64
}

// Run simulates trajectories noisy runs from |0…0⟩, comparing each against
// the ideal (noiseless) state.
func Run(c *circuit.Circuit, ch Channel, trajectories int, rng *rand.Rand) (*Result, error) {
	if trajectories < 1 {
		return nil, fmt.Errorf("noise: need at least one trajectory")
	}
	if err := ch.validate(); err != nil {
		return nil, err
	}
	ideal := statevec.New(c.N)
	for i := range c.Gates {
		g := &c.Gates[i]
		ideal.Apply(g.Matrix(), g.Qubits...)
	}
	res := &Result{
		Trajectories: trajectories,
		MeanProbs:    make([]float64, 1<<c.N),
	}
	for tr := 0; tr < trajectories; tr++ {
		v, err := Trajectory(c, ch, rng)
		if err != nil {
			return nil, err
		}
		res.MeanFidelity += ideal.Fidelity(v)
		for i, a := range v.Amps {
			res.MeanProbs[i] += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	res.MeanFidelity /= float64(trajectories)
	for i := range res.MeanProbs {
		res.MeanProbs[i] /= float64(trajectories)
	}
	return res, nil
}

// ExpectedGateFidelity returns the first-order estimate of the final-state
// fidelity: each of the g noise insertions preserves the state with
// probability 1−p, so F ≈ (1−p)^insertions with p = PX+PY+PZ.
func ExpectedGateFidelity(c *circuit.Circuit, ch Channel) float64 {
	insertions := 0
	for i := range c.Gates {
		insertions += len(c.Gates[i].Qubits)
	}
	p := ch.PX + ch.PY + ch.PZ
	f := 1.0
	for i := 0; i < insertions; i++ {
		f *= 1 - p
	}
	return f
}
