package harness

import (
	"fmt"
	"io"
	"math/rand"

	"qusim/internal/gate"
	"qusim/internal/harness/refkernel"
	"qusim/internal/kernels"
	"qusim/internal/perfmodel"
)

// Fig. 2: roofline plots of the 1- and 4-qubit kernels at the successive
// optimization steps, for one Edison socket (2a) and one Cori II KNL node
// (2b). The machine-specific GFLOPS are modeled through the calibrated
// rooflines; the optimization-step *progression* is measured on this host
// by running the kernel of each step: the two reference kernels of package
// refkernel, the general-k split kernel, and the kernel this machine runs.

func init() {
	register(Experiment{ID: "fig2a", Title: "Fig. 2a — roofline, Edison socket", Run: fig2(perfmodel.EdisonSocket(), paperFig2a)})
	register(Experiment{ID: "fig2b", Title: "Fig. 2b — roofline, Cori II KNL node", Run: fig2(perfmodel.CoriKNL(), paperFig2b)})
}

// Paper-reported measured points (GFLOPS) for the labeled steps.
var paperFig2a = map[string]float64{
	"4q best (step 3)": 166.2,
}

var paperFig2b = map[string]float64{
	"4q step 1":          229.6,
	"4q step 2 (AVX)":    442.7,
	"4q step 2 (AVX512)": 878.7,
}

func fig2(m perfmodel.Machine, paper map[string]float64) func(io.Writer, Config) error {
	return func(w io.Writer, cfg Config) error {
		header(w, fmt.Sprintf("roofline for %s", m.Name))
		fmt.Fprintf(w, "peak %.1f GFLOPS, memory roof %.1f GB/s\n\n", m.PeakGFLOPS, m.StreamBW)

		t := newTable(w)
		t.row("kernel", "OI [F/B]", "roofline [GF]", "model [GF]")
		for _, k := range []int{1, 4} {
			oi := perfmodel.OperationalIntensity(k)
			t.row(fmt.Sprintf("%d-qubit", k),
				fmt.Sprintf("%.3f", oi),
				fmt.Sprintf("%.1f", m.Roofline(oi)),
				fmt.Sprintf("%.1f", m.KernelGFLOPS(k, 1e9, false)))
		}
		t.flush()
		fmt.Fprintln(w)
		for label, v := range paper {
			fmt.Fprintf(w, "paper-reported point: %-22s %.1f GFLOPS\n", label, v)
		}

		// Host-measured optimization-step progression (the portable part of
		// Fig. 2: each step should improve on the previous one).
		n := 22
		if cfg.Quick {
			n = 18
		}
		fmt.Fprintf(w, "\nhost-measured optimization steps (2^%d amplitudes), GFLOPS:\n", n)
		t = newTable(w)
		t.row("kernel", "step 0 naive", "step 1 in-place", "step 2-3 split", "this host ("+kernels.ISA()+")")
		// NewAmps has touched every page of both vectors before anything is
		// timed: a fresh allocation's first pass would measure its page
		// faults.
		src, dst := kernels.NewAmps[complex128](1<<n), kernels.NewAmps[complex128](1<<n)
		src[0] = 1
		for _, k := range []int{1, 4} {
			qs := lowOrderQs(k)
			u := gate.RandomUnitary(k, rand.New(rand.NewSource(7)))
			naive := gflops(n, k, func() {
				// Ping-pong the two vectors like the baseline implementation.
				refkernel.Naive(dst, src, u.Data, qs)
				src, dst = dst, src
			})
			inPlace := gflops(n, k, func() { refkernel.InPlace(src, u.Data, qs) })
			split := kernels.PrepareGeneral(u.Data, qs, len(src))
			host := kernels.PrepareDense(u.Data, qs, len(src))
			t.row(fmt.Sprintf("%d-qubit", k),
				fmt.Sprintf("%.2f", naive),
				fmt.Sprintf("%.2f", inPlace),
				fmt.Sprintf("%.2f", gflops(n, k, func() { split.Sweep(src) })),
				fmt.Sprintf("%.2f", gflops(n, k, func() { host.Sweep(src) })))
		}
		t.flush()
		note(w, "the first three columns are portable Go at every step; the last is the kernel this machine runs — cmd/kernelgen's assembly where ISA is avx512 or avx2, its pure-Go kernels of the same arithmetic otherwise. The Edison/KNL absolute values come from the calibrated model (see DESIGN.md).")
		return nil
	}
}
