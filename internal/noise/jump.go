package noise

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"qusim/internal/circuit"
	"qusim/internal/gate"
	"qusim/internal/statevec"
)

// Quantum-jump trajectories for general (non-Pauli) single-qubit channels:
// unlike stochastic Pauli insertion, the branch probabilities depend on the
// state — p_k = ‖K_k|ψ⟩‖² — so each step computes the branch norms, draws a
// Kraus operator, applies it and renormalizes. Trajectory averages converge
// to ρ → Σ K ρ K†, as package densitymatrix's tests check.

// KrausChannel is a general single-qubit channel given by its Kraus
// operators (Σ K†K = 1).
type KrausChannel struct {
	Name string
	Ops  []gate.Matrix
}

// AmplitudeDampingChannel returns the T1-decay channel with decay
// probability gamma per application.
func AmplitudeDampingChannel(gamma float64) KrausChannel {
	k0 := gate.Identity(1)
	k0.Set(1, 1, complex(math.Sqrt(1-gamma), 0))
	k1 := gate.New(1)
	k1.Set(0, 1, complex(math.Sqrt(gamma), 0))
	return KrausChannel{Name: "amplitude-damping", Ops: []gate.Matrix{k0, k1}}
}

func (c KrausChannel) validate() error {
	if len(c.Ops) == 0 {
		return fmt.Errorf("noise: channel %q has no Kraus operators", c.Name)
	}
	sum := gate.New(1)
	for _, k := range c.Ops {
		if k.K != 1 {
			return fmt.Errorf("noise: channel %q has a %d-qubit Kraus operator", c.Name, k.K)
		}
		p := gate.Mul(k.Dagger(), k)
		for i := range sum.Data {
			sum.Data[i] += p.Data[i]
		}
	}
	if !gate.ApproxEqual(sum, gate.Identity(1), 1e-9) {
		return fmt.Errorf("noise: channel %q is not trace preserving", c.Name)
	}
	return nil
}

// jump applies one quantum jump of the channel on qubit q: branch k is
// drawn with probability ‖K_k ψ‖² and the state renormalized.
func (c KrausChannel) jump(v *statevec.Vector, q int, rng *rand.Rand) {
	// Branch norms: ‖K ψ‖² = Σ over amplitude pairs. Compute via the
	// 2×2 positive matrices M_k = K†K: p_k = ⟨ψ|M_k|ψ⟩ — cheaper than
	// materializing every branch.
	probs := make([]float64, len(c.Ops))
	var total float64
	for ki, k := range c.Ops {
		m := gate.Mul(k.Dagger(), k)
		p := expectation2x2(v, q, m)
		probs[ki] = p
		total += p
	}
	r := rng.Float64() * total
	chosen := len(c.Ops) - 1
	acc := 0.0
	for ki, p := range probs {
		acc += p
		if r < acc {
			chosen = ki
			break
		}
	}
	v.ApplyDense(c.Ops[chosen], q)
	v.Renormalize()
}

// expectation2x2 returns ⟨ψ|M_q|ψ⟩ for a single-qubit Hermitian M.
func expectation2x2(v *statevec.Vector, q int, m gate.Matrix) float64 {
	bit := 1 << q
	var acc complex128
	for i, a := range v.Amps {
		if i&bit != 0 {
			continue
		}
		b := v.Amps[i|bit]
		acc += cmplx.Conj(a)*(m.Data[0]*a+m.Data[1]*b) +
			cmplx.Conj(b)*(m.Data[2]*a+m.Data[3]*b)
	}
	return real(acc)
}

// JumpTrajectory runs one quantum-jump trajectory: the channel is applied
// after every gate on every touched qubit.
func JumpTrajectory(c *circuit.Circuit, ch KrausChannel, rng *rand.Rand) (*statevec.Vector, error) {
	if err := ch.validate(); err != nil {
		return nil, err
	}
	v := statevec.New(c.N)
	for i := range c.Gates {
		g := &c.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
		for _, q := range g.Qubits {
			ch.jump(v, q, rng)
		}
	}
	return v, nil
}

// RunJumps averages trajectories of a general Kraus channel.
func RunJumps(c *circuit.Circuit, ch KrausChannel, trajectories int, rng *rand.Rand) (*Result, error) {
	if trajectories < 1 {
		return nil, fmt.Errorf("noise: need at least one trajectory")
	}
	ideal := statevec.New(c.N)
	for i := range c.Gates {
		g := &c.Gates[i]
		ideal.Apply(g.Matrix(), g.Qubits...)
	}
	res := &Result{Trajectories: trajectories, MeanProbs: make([]float64, 1<<c.N)}
	for tr := 0; tr < trajectories; tr++ {
		v, err := JumpTrajectory(c, ch, rng)
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
