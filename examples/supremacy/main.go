// Supremacy: the paper's headline workload scaled to a laptop — generate a
// depth-25 random quantum supremacy circuit (Fig. 1 rules), schedule it with
// the communication-minimizing optimizations of Sec. 3.6, and run it across
// simulated MPI ranks, comparing against the per-gate scheme of [5].
package main

import (
	"fmt"
	"log"

	"qusim"
)

func main() {
	const (
		qubits = 20
		depth  = 25
		ranks  = 8 // 2^3 simulated nodes
	)
	rows, cols := qusim.GridForQubits(qubits)
	c := qusim.Supremacy(qusim.SupremacyOptions{
		Rows: rows, Cols: cols, Depth: depth, Seed: 42,
		SkipInitialH: true, // we initialize the uniform state directly
		OmitFinalCZs: true, // final CZs do not change probabilities
	})
	fmt.Printf("circuit: %dx%d grid, depth %d, %d gates\n", rows, cols, depth, len(c.Gates))

	// Schedule: stages + global-to-local swaps + fused clusters.
	opts := qusim.DefaultScheduleOptions(qubits - 3) // 3 global qubits
	plan, err := qusim.Schedule(c, opts)
	if err != nil {
		log.Fatal(err)
	}
	s := plan.Stats
	fmt.Printf("schedule: %d stages, %d swaps, %d clusters (%.1f gates each), %d diagonal specializations\n",
		s.Stages, s.Swaps, s.Clusters, s.GatesPerCluster, s.DiagonalOps)
	fmt.Printf("per-gate scheme would need %d communication steps (%.0fx more)\n\n",
		s.BaselineGlobalGates, float64(s.BaselineGlobalGates)/float64(s.Swaps))

	res, err := qusim.RunDistributed(plan, qusim.DistOptions{Ranks: ranks, Init: qusim.InitUniform})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduled run:  %7.3fs wall, %2d comm steps, %6.1f MB moved, entropy %.5f\n",
		res.Elapsed.Seconds(), res.CommSteps, float64(res.CommBytes)/1e6, res.Entropy)

	base, err := qusim.RunBaseline(c, qusim.BaselineOptions{Ranks: ranks, Init: qusim.InitUniform})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-gate run:   %7.3fs wall, %2d comm steps, %6.1f MB moved, entropy %.5f\n",
		base.Elapsed.Seconds(), base.CommSteps, float64(base.CommBytes)/1e6, base.Entropy)
	fmt.Printf("\ncommunication reduction: %.1fx steps, %.1fx bytes\n",
		float64(base.CommSteps)/float64(res.CommSteps),
		float64(base.CommBytes)/float64(res.CommBytes))
}
