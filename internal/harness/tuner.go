package harness

import (
	"fmt"
	"io"

	"qusim/internal/kernels"
	"qusim/internal/schedule"
)

// The tuner experiment: what is left of the paper's code generation /
// benchmarking feedback loop (Sec. 3.2) now that the kernel per machine is
// fixed. It times this machine's dense kernel per gate size and reports the
// relative pass costs the scheduler would plan with (`qsim -tune`) beside
// the table compiled in from BENCH_kernels.json.

func init() {
	register(Experiment{ID: "tuner", Title: "Sec. 3.2 — kernel pass costs on this host (benchmarking feedback loop)", Run: tuner})
}

func tuner(w io.Writer, cfg Config) error {
	n := 24
	reps := 3
	if cfg.Quick {
		n, reps = 16, 1
	}
	header(w, fmt.Sprintf("%s kernels on this host (2^%d amplitudes, double precision)", kernels.ISA(), n))
	res := kernels.Tune(5, n, reps)
	tuned, compiled := schedule.CostsFromTune(res), schedule.MeasuredCosts()
	t := newTable(w)
	t.row("k", "pass [ms]", "relative cost", "compiled-in")
	for _, tm := range res.Timings {
		t.row(tm.K, fmt.Sprintf("%.2f", tm.NsPerApply/1e6),
			fmt.Sprintf("%.2f", tuned.Dense[tm.K-1]), fmt.Sprintf("%.2f", compiled.Dense[tm.K-1]))
	}
	t.flush()
	note(w, "the paper's Python generator + benchmark loop picks kernels per target machine; here the kernel is fixed by the instruction set and the loop's measurement prices the scheduler's plans (schedule.CostsFromTune); the diagonal sweep is not timed and keeps its compiled-in ratio")
	return nil
}
