package dist

import (
	"fmt"
	"math/bits"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
)

// BaselineOptions configures RunBaseline.
type BaselineOptions struct {
	Ranks int
	Init  InitState
}

// RunBaseline executes the circuit gate by gate with the fixed layout
// qubit q ↔ bit location q — the scheme of [19] as used by the state of the
// art [5] that Table 2 compares against. It is Run on the plan of
// schedule.PerGate: every dense gate on a global qubit exchanges half of each
// rank's vector with its partner and back, and a diagonal gate on two or
// more qubits (the CZ) runs on global qubits without communication, as in
// [5]. Dense gates on global qubits must be single-qubit (all the supremacy
// circuits' dense gates are).
//
// Result.CommSteps is in the paper's unit, one step per communicating gate
// (the two exchanges of a gate are one step).
func RunBaseline(c *circuit.Circuit, opts BaselineOptions) (*Result, error) {
	ranks := opts.Ranks
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return nil, fmt.Errorf("dist: rank count %d is not a power of two", ranks)
	}
	plan, err := schedule.PerGate(c, c.N-bits.TrailingZeros(uint(ranks)), func(gt *circuit.Gate) bool { return gt.K() > 1 })
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	res, err := Run(plan, Options{Ranks: ranks, Init: opts.Init})
	if err != nil {
		return nil, err
	}
	res.CommSteps = plan.Stats.BaselineGlobalGates
	return res, nil
}
