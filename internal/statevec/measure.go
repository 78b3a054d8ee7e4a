package statevec

import (
	"fmt"
	"math"
	"math/rand"

	"qusim/internal/par"
)

// Projective measurement support: not used by the supremacy experiments
// (which only need output probabilities), but part of the simulator's
// public API for algorithm studies (Sec. 1: verifying quantum algorithms
// and studying their behaviour).

// Measure performs a projective measurement of qubit q: it samples an
// outcome with the Born probabilities, collapses the state, renormalizes,
// and returns the outcome bit.
func (v *State[T]) Measure(q int, rng *rand.Rand) int {
	p1 := v.MarginalProbability(q)
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	v.Collapse(q, outcome)
	return outcome
}

// Collapse projects qubit q onto the given outcome and renormalizes.
// It panics if the outcome has zero probability.
func (v *State[T]) Collapse(q, outcome int) {
	if q < 0 || q >= v.N {
		panic(fmt.Sprintf("statevec: Collapse qubit %d out of range", q))
	}
	var p float64
	if outcome == 1 {
		p = v.MarginalProbability(q)
	} else {
		p = 1 - v.MarginalProbability(q)
	}
	if p <= 0 {
		panic(fmt.Sprintf("statevec: collapsing qubit %d onto zero-probability outcome %d", q, outcome))
	}
	inv := T(complex(1/math.Sqrt(p), 0))
	bit := 1 << q
	keep := 0
	if outcome == 1 {
		keep = bit
	}
	par.For(len(v.Amps), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i&bit == keep {
				v.Amps[i] *= inv
			} else {
				v.Amps[i] = 0
			}
		}
	})
}

// MeasureAll measures every qubit, collapsing the state to a basis state,
// and returns the resulting bitstring.
func (v *State[T]) MeasureAll(rng *rand.Rand) int {
	out := 0
	for q := 0; q < v.N; q++ {
		out |= v.Measure(q, rng) << q
	}
	return out
}
