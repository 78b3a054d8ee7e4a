package harness

import (
	"fmt"
	"io"
	"math"

	"qusim/internal/circuit"
	"qusim/internal/dist"
	"qusim/internal/perfmodel"
	"qusim/internal/schedule"
)

// Table 2: the full Cori II runs — 30 qubits on 1 node, 36 on 64, 42 on
// 4096 and 45 on 8192 — reporting time, communication fraction and speedup
// over the per-gate state of the art [5]. The paper-scale rows combine the
// real scheduler output with the calibrated machine/network model; a
// scaled-down instance additionally runs for real (both schemes) on
// simulated ranks.

func init() {
	register(Experiment{ID: "table2", Title: "Table 2 — full simulation runs", Run: table2})
}

var paperTable2 = []struct {
	n, gates, nodes int
	timeSec         float64
	commPct         float64
	speedup         string
}{
	{30, 369, 1, 9.58, 0, "14.8x"},
	{36, 447, 64, 28.92, 42.9, "12.8x"},
	{42, 528, 4096, 79.53, 71.8, "12.4x"},
	{45, 569, 8192, 552.61, 78.0, "N/A"},
}

func table2(w io.Writer, cfg Config) error {
	header(w, "Table 2: depth-25 supremacy circuit runs on Cori II (modeled at paper scale)")
	m := perfmodel.CoriKNL()
	nw := perfmodel.CrayAries()

	t := newTable(w)
	t.row("qubits", "nodes", "time [s] (paper)", "comm % (paper)", "speedup vs [5] (paper)")
	for _, row := range paperTable2 {
		l := row.n - log2(row.nodes)
		stats, err := planStats(row.n, 25, cfg.Seed, l)
		if err != nil {
			return err
		}
		est := perfmodel.EstimateScheduled(m, nw, stats, row.nodes)
		base := perfmodel.EstimateBaseline(m, nw, stats, row.nodes)
		speedup := base.TotalSec / est.TotalSec
		t.row(row.n, row.nodes,
			fmt.Sprintf("%.1f (%.2f)", est.TotalSec, row.timeSec),
			fmt.Sprintf("%.1f (%.1f)", est.CommFraction*100, row.commPct),
			fmt.Sprintf("%.1fx (%s)", speedup, row.speedup))
	}
	t.flush()
	note(w, "45-qubit run: paper sustains 0.428 PFLOPS over 0.5 PB; modeled PFLOPS printed by 'go test -run TestTable2 -v ./internal/perfmodel'")

	// Real scaled-down comparison of both schemes.
	n := 18
	ranks := 8
	if cfg.Quick {
		n, ranks = 14, 4
	}
	fmt.Fprintf(w, "\nreal %d-qubit run on %d simulated ranks, both schemes:\n", n, ranks)
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 25, Seed: cfg.Seed, SkipInitialH: true})
	plan, err := schedule.Build(circ, paperOptions(n-log2(ranks)))
	if err != nil {
		return err
	}
	sched, err := dist.Run(plan, dist.Options{Ranks: ranks, Init: dist.InitUniform})
	if err != nil {
		return err
	}
	base, err := dist.RunBaseline(circ, dist.BaselineOptions{Ranks: ranks, Init: dist.InitUniform})
	if err != nil {
		return err
	}
	t = newTable(w)
	t.row("scheme", "wall [s]", "comm steps", "comm MB", "entropy")
	t.row("scheduled (this work)", fmt.Sprintf("%.3f", sched.Elapsed.Seconds()), sched.CommSteps,
		fmt.Sprintf("%.1f", float64(sched.CommBytes)/1e6), fmt.Sprintf("%.4f", sched.Entropy))
	t.row("per-gate [5]", fmt.Sprintf("%.3f", base.Elapsed.Seconds()), base.CommSteps,
		fmt.Sprintf("%.1f", float64(base.CommBytes)/1e6), fmt.Sprintf("%.4f", base.Entropy))
	t.flush()
	if math.Abs(sched.Entropy-base.Entropy) > 1e-6 {
		return fmt.Errorf("harness: schemes disagree on entropy: %v vs %v", sched.Entropy, base.Entropy)
	}
	fmt.Fprintf(w, "measured: %.1fx fewer comm steps, %.1fx less comm volume, %.1fx wall-clock\n",
		float64(base.CommSteps)/float64(max(1, sched.CommSteps)),
		float64(base.CommBytes)/float64(max64(1, sched.CommBytes)),
		base.Elapsed.Seconds()/sched.Elapsed.Seconds())
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
