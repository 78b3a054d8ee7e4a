package f32vec

import (
	"fmt"

	"qusim/internal/schedule"
)

// RunPlan executes a scheduled plan on the single-precision state — the
// combination the paper's outlook points at: "the simulation of 46 qubits
// is feasible when using single-precision floating point numbers" with the
// same two-swap schedules. The ops run through the shard applier every back
// end shares (schedule.Shard) on one shard covering the whole vector: swaps
// and permutations are exact bit permutations executed in place — no second
// vector at any point — and cluster and diagonal matrices are converted to
// complex64 per op.
func (v *Vector) RunPlan(p *schedule.Plan) error {
	if p.N != v.N {
		return fmt.Errorf("f32vec: plan is for %d qubits, state has %d", p.N, v.N)
	}
	sh := schedule.Shard[complex64]{Amps: v.Amps, L: v.N}
	return sh.Run(p, 0)
}
