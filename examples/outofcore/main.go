// Out-of-core: the Sec. 5 outlook — because scheduling reduces the whole
// circuit to two all-to-alls, the state vector can live on disk (SSDs at
// 49 qubits / 8 PB in the paper). Here an 18-qubit state is simulated
// entirely from a backing file using 64-KiB in-memory chunks, and verified
// against the in-memory simulator.
package main

import (
	"fmt"
	"log"
	"math"

	"qusim"
	"qusim/internal/oocvec"
)

func main() {
	const (
		n = 18
		l = 12 // 2^12 amplitudes (64 KiB) in memory at a time
	)
	rows, cols := qusim.GridForQubits(n)
	c := qusim.Supremacy(qusim.SupremacyOptions{
		Rows: rows, Cols: cols, Depth: 25, Seed: 9, SkipInitialH: true,
	})
	opts := qusim.DefaultScheduleOptions(l)
	plan, err := qusim.Schedule(c, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %d qubits, %d gates; state on disk: %.1f MB, in memory: %.1f KB\n",
		n, len(c.Gates), math.Pow(2, n)*16/1e6, math.Pow(2, l)*16/1e3)
	fmt.Printf("schedule: %d swaps (layout renumberings, no data moved), %d clusters, %d diagonal ops\n",
		plan.Stats.Swaps, plan.Stats.Clusters, plan.Stats.DiagonalOps)

	v, err := oocvec.NewUniform(n, l, "")
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close()
	// Arm the circuit-aware prefetch pipeline: each stage's gates fuse into
	// one streamed pass, with 4 chunks read ahead of compute (DESIGN.md §11).
	v.SetPrefetch(4)
	if err := v.Run(plan); err != nil {
		log.Fatal(err)
	}
	norm, ent, err := v.NormEntropy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out-of-core result: norm %.12f, entropy %.6f nats\n", norm, ent)

	// Verify against the in-memory simulator.
	st := qusim.NewUniformState(n)
	qusim.Simulate(c, st)
	fmt.Printf("in-memory result:   norm %.12f, entropy %.6f nats\n", st.Norm(), st.Entropy())
	if math.Abs(ent-st.Entropy()) > 1e-9 {
		log.Fatal("MISMATCH between out-of-core and in-memory simulation")
	}
	fmt.Println("match ✓ — the state never needed to fit in memory")
}
