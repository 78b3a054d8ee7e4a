package harness

import (
	"fmt"
	"io"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/emulate"
	"qusim/internal/statevec"
)

// Related-work comparison ([7], Sec. 1): emulating the QFT with an FFT
// beats gate-by-gate simulation asymptotically — but, as the paper notes,
// no such classical shortcut exists for supremacy circuits, which is why
// the full state-vector simulator (and this reproduction) is needed.

func init() {
	register(Experiment{ID: "emulation", Title: "Related work [7] — QFT emulation vs gate simulation", Run: emulation})
}

func emulation(w io.Writer, cfg Config) error {
	n := 20
	if cfg.Quick {
		n = 14
	}
	header(w, fmt.Sprintf("QFT on %d qubits: gate-by-gate vs FFT emulation", n))
	c := circuit.QFT(n)

	v1 := statevec.NewUniform(n)
	start := time.Now()
	for i := range c.Gates {
		g := &c.Gates[i]
		v1.Apply(g.Matrix(), g.Qubits...)
	}
	gateTime := time.Since(start)

	v2 := statevec.NewUniform(n)
	start = time.Now()
	emulate.QFT(v2)
	fftTime := time.Since(start)

	diff := v1.MaxDiff(v2)
	t := newTable(w)
	t.row("method", "gates applied", "wall [s]")
	t.row("gate-by-gate simulation", len(c.Gates), fmt.Sprintf("%.4f", gateTime.Seconds()))
	t.row("FFT emulation", "-", fmt.Sprintf("%.4f", fftTime.Seconds()))
	t.flush()
	fmt.Fprintf(w, "speedup %.1fx, max amplitude difference %.2g\n",
		gateTime.Seconds()/fftTime.Seconds(), diff)
	if diff > 1e-9 {
		return fmt.Errorf("harness: emulation result deviates from gate simulation: %g", diff)
	}
	note(w, "no analogous shortcut exists for random supremacy circuits — hence the full simulator")
	return nil
}
