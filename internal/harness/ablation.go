package harness

import (
	"fmt"
	"io"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// Ablations of the design choices DESIGN.md calls out: gate specialization
// (Sec. 3.5 claims a 2x swap reduction at 36 qubits), the greedy swap
// search vs the lowest-order baseline, clustering on/off, boundary
// adjustment, and the qubit-mapping heuristic (Sec. 3.6.2 claims 2x
// time-to-solution). Scheduling quantities are exact; the mapping ablation
// is wall-clock measured on this host.

func init() {
	register(Experiment{ID: "ablation", Title: "Ablations — specialization, search, clustering, mapping", Run: ablation})
}

func ablation(w io.Writer, cfg Config) error {
	n, depth := 36, 25
	l := 30
	execN := 22
	if cfg.Quick {
		n, l, execN = 20, 14, 16
	}
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: cfg.Seed, SkipInitialH: true})

	header(w, fmt.Sprintf("scheduling ablations on a %d-qubit depth-%d circuit, l=%d", n, depth, l))
	t := newTable(w)
	t.row("configuration", "swaps", "clusters", "gates/cluster")
	build := func(label string, mutate func(*schedule.Options)) error {
		opts := paperOptions(l)
		mutate(&opts)
		plan, err := schedule.Build(circ, opts)
		if err != nil {
			return err
		}
		t.row(label, plan.Stats.Swaps, plan.Stats.Clusters, fmt.Sprintf("%.2f", plan.Stats.GatesPerCluster))
		return nil
	}
	for _, cse := range []struct {
		label  string
		mutate func(*schedule.Options)
	}{
		{"default (CZ spec, greedy, kmax=4, adjust)", func(o *schedule.Options) {}},
		{"+ T specialization (median-hard mode)", func(o *schedule.Options) { o.SpecializeDiagonal1Q = true }},
		{"- CZ specialization (Sec. 3.5 off)", func(o *schedule.Options) { o.SpecializeDiagonal2Q = false }},
		{"- greedy search (lowest-order swaps)", func(o *schedule.Options) { o.SwapPolicy = schedule.SwapLowestOrder }},
		{"- boundary adjustment (step 3 off)", func(o *schedule.Options) { o.AdjustBoundaries = false }},
		{"- cluster seed search (step 2 local search off)", func(o *schedule.Options) { o.NoSeedSearch = true }},
		{"- clustering (per-gate kernels)", func(o *schedule.Options) { o.Clustering = false }},
		{"kmax=3", func(o *schedule.Options) { o.KMax = 3 }},
		{"kmax=5", func(o *schedule.Options) { o.KMax = 5 }},
	} {
		if err := build(cse.label, cse.mutate); err != nil {
			return err
		}
	}
	t.flush()

	// Execution-time ablation: clustering and mapping, wall-clock on this
	// host for a state that fits in memory.
	fmt.Fprintf(w, "\nsingle-node execution ablation (%d qubits, wall-clock):\n", execN)
	r2, c2 := circuit.GridForQubits(execN)
	circ2 := circuit.Supremacy(circuit.SupremacyOptions{Rows: r2, Cols: c2, Depth: depth, Seed: cfg.Seed, SkipInitialH: true})
	t = newTable(w)
	t.row("configuration", "kernel invocations", "wall [s]")
	for _, cse := range []struct {
		label  string
		mutate func(*schedule.Options)
	}{
		{"fused clusters + heuristic mapping", func(o *schedule.Options) {}},
		{"fused clusters + identity mapping", func(o *schedule.Options) { o.Mapping = schedule.MapIdentity }},
		{"no fusion (gate-by-gate kernels)", func(o *schedule.Options) { o.Clustering = false }},
	} {
		opts := paperOptions(execN)
		cse.mutate(&opts)
		plan, err := schedule.Build(circ2, opts)
		if err != nil {
			return err
		}
		v := statevec.NewUniform(execN)
		start := time.Now()
		if err := plan.Run(v); err != nil {
			return err
		}
		elapsed := time.Since(start)
		invocations := 0
		for _, op := range plan.Ops {
			if op.Kind != schedule.OpSwap {
				invocations++
			}
		}
		t.row(cse.label, invocations, fmt.Sprintf("%.3f", elapsed.Seconds()))
	}
	t.flush()
	note(w, "paper: fusion turns %d gates into far fewer kernel sweeps; the mapping heuristic bought 2x on Edison's 8-way caches (its effect here depends on this host's cache)", len(circ2.Gates))
	return nil
}
