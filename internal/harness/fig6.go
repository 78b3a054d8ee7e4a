package harness

import (
	"fmt"
	"io"

	"qusim/internal/kernels"
	"qusim/internal/perfmodel"
)

// Fig. 6 (KNL) and Fig. 9 (Edison): performance of the k = 1…5 kernels when
// applied to low-order vs high-order qubits. The penalty appears once 2^k
// exceeds the effective cache set-associativity (8 on both machines). The
// machine values come from the associativity model; the same high/low-order
// contrast is measured on this host with the real kernels.

func init() {
	register(Experiment{ID: "fig6", Title: "Fig. 6 — high- vs low-order kernels, Cori II KNL", Run: fig6or9(perfmodel.CoriKNL())})
	register(Experiment{ID: "fig9", Title: "Fig. 9 — high- vs low-order kernels, Edison node", Run: fig6or9(perfmodel.EdisonSocket())})
}

func fig6or9(m perfmodel.Machine) func(io.Writer, Config) error {
	return func(w io.Writer, cfg Config) error {
		header(w, fmt.Sprintf("k-qubit kernels, low- vs high-order qubits on %s", m.Name))
		fmt.Fprintf(w, "modeled (effective associativity %d-way):\n", m.AssocEff)
		t := newTable(w)
		t.row("k", "low-order [GF]", "high-order [GF]", "penalty")
		for k := 1; k <= 5; k++ {
			lo := m.KernelGFLOPS(k, 1e9, false)
			hi := m.KernelGFLOPS(k, 1e9, true)
			t.row(k, fmt.Sprintf("%.0f", lo), fmt.Sprintf("%.0f", hi), fmt.Sprintf("%.2fx", lo/hi))
		}
		t.flush()

		n := 24
		if cfg.Quick {
			n = 18
		}
		fmt.Fprintf(w, "\nhost-measured (2^%d amplitudes, %s kernels), GFLOPS:\n", n, kernels.ISA())
		t = newTable(w)
		t.row("k", "low-order", "high-order", "penalty")
		for k := 1; k <= 5; k++ {
			lo := measureKernelGFLOPS(n, k, lowOrderQs(k))
			hi := measureKernelGFLOPS(n, k, highOrderQs(n, k))
			t.row(k, fmt.Sprintf("%.2f", lo), fmt.Sprintf("%.2f", hi), fmt.Sprintf("%.2fx", lo/hi))
		}
		t.flush()
		note(w, "paper (KNL): drop sets in at k=4-5; k<=3 unaffected since 2^k entries map to distinct cache ways")
		return nil
	}
}
