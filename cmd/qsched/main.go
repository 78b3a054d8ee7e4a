// Command qsched analyzes the communication schedule of a circuit without
// allocating any state — it works up to the 49-qubit circuits of the
// paper's outlook (Sec. 5). It prints the stage/swap/cluster structure and
// the comparison against the per-gate scheme of [5].
//
// Example:
//
//	qsched -qubits 49 -depth 25 -local 30 -spec1q
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
)

func main() {
	var (
		qubits = flag.Int("qubits", 42, "number of qubits")
		depth  = flag.Int("depth", 25, "circuit depth (clock cycles after the Hadamard layer)")
		local  = flag.Int("local", 30, "local qubits per rank (l)")
		kmax   = flag.Int("kmax", schedule.DefaultOptions(0).KMax, "cap on the fused-gate size; below it the kernel cost table decides how far to fuse")
		seed   = flag.Int64("seed", 0, "random seed")
		spec1q = flag.Bool("spec1q", false, "specialize diagonal 1-qubit gates (median-hard mode)")
		policy = flag.String("policy", "greedy", "swap policy: greedy or lowest-order")
		full   = flag.Bool("full", false, "print the full per-op plan")
		save   = flag.String("save", "", "write the plan to this file (load with qsim -plan)")
	)
	flag.Parse()
	// Every rejection comes before the circuit exists: a grid of no qubit
	// panics in its generator, and a negative depth yields an empty plan.
	switch {
	case *qubits < 1 || *qubits > 62:
		usage(fmt.Errorf("-qubits must be from 1 to 62, got %d", *qubits))
	case *depth < 0:
		usage(fmt.Errorf("-depth must not be negative, got %d", *depth))
	case *policy != "greedy" && *policy != "lowest-order":
		usage(fmt.Errorf("unknown policy %q", *policy))
	}

	r, c := circuit.GridForQubits(*qubits)
	circ := circuit.Supremacy(circuit.SupremacyOptions{
		Rows: r, Cols: c, Depth: *depth, Seed: *seed, SkipInitialH: true,
	})
	opts := schedule.DefaultOptions(*local)
	opts.KMax = *kmax
	opts.SpecializeDiagonal1Q = *spec1q
	opts.SwapPolicy = schedule.SwapGreedy
	if *policy == "lowest-order" {
		opts.SwapPolicy = schedule.SwapLowestOrder
	}
	plan, err := schedule.Build(circ, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsched: %v\n", err)
		os.Exit(1)
	}
	s := plan.Stats
	fmt.Printf("circuit: %d qubits (%dx%d grid), depth %d, %d gates\n", circ.N, r, c, *depth, len(circ.Gates))
	fmt.Printf("layout:  %d local / %d global qubits (%d ranks)\n", plan.L, plan.N-plan.L, 1<<(plan.N-plan.L))
	fmt.Printf("stages:  %d, global-to-local swaps: %d\n", s.Stages, s.Swaps)
	fmt.Printf("clusters: %d (%.2f gates/cluster), diagonal specializations: %d, diagonals folded away: %d\n",
		s.Clusters, s.GatesPerCluster, s.DiagonalOps, s.FoldedDiagonals)
	var sizes []int
	for k := range s.ClusterSizes {
		sizes = append(sizes, k)
	}
	sort.Ints(sizes)
	for _, k := range sizes {
		fmt.Printf("  %d-qubit clusters: %d\n", k, s.ClusterSizes[k])
	}
	fmt.Printf("modelled kernel cost: %.1f k=1 passes (default cost table)\n", opts.Costs.PlanCost(plan))
	fmt.Printf("per-gate scheme [5]: %d comm steps (worst case %d) -> %.1fx reduction\n",
		s.BaselineGlobalGates, s.BaselineGlobalGatesDense,
		float64(s.BaselineGlobalGates)/float64(max(1, s.Swaps)))
	if *full {
		fmt.Print(plan.Summary())
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qsched: %v\n", err)
			os.Exit(1)
		}
		if err := schedule.WritePlan(f, plan); err != nil {
			fmt.Fprintf(os.Stderr, "qsched: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "qsched: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("plan written to %s\n", *save)
	}
}

// usage exits 2 on a flag error, with the reason and the usage text.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "qsched: %v\n", err)
	flag.Usage()
	os.Exit(2)
}
