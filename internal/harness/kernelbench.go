package harness

import (
	"math/rand"
	"time"

	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/perfmodel"
)

// Shared kernel measurement helpers for the Fig. 2/6/7/9/10 experiments.

// secondsPerPass times pass — one application of a gate to a whole state —
// after a warm-up, over enough repetitions to fill 50 ms.
func secondsPerPass(pass func()) float64 {
	pass() // warm up
	reps := 1
	for {
		start := time.Now()
		for r := 0; r < reps; r++ {
			pass()
		}
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond || reps > 1<<16 {
			return elapsed.Seconds() / float64(reps)
		}
		reps *= 4
	}
}

// hostKernel prepares the kernel this machine runs (kernels.ISA) for a
// random k-qubit gate at the sorted positions qs, and a 2^n state for it.
func hostKernel(n, k int, qs []int) (kernels.Dense[complex128], []complex128) {
	u := gate.RandomUnitary(k, rand.New(rand.NewSource(7)))
	amps := kernels.NewAmps[complex128](1 << n)
	amps[0] = 1
	return kernels.PrepareDense(u.Data, qs, len(amps)), amps
}

// measureKernelGFLOPS returns the sustained GFLOPS of this machine's
// k-qubit kernel on a 2^n state at the given sorted qubit positions.
func measureKernelGFLOPS(n, k int, qs []int) float64 {
	d, amps := hostKernel(n, k, qs)
	return gflops(n, k, func() { d.Sweep(amps) })
}

// gflops converts the time of one pass of a k-qubit gate over a 2^n state.
func gflops(n, k int, pass func()) float64 {
	return perfmodel.KernelFlops(n, k) / secondsPerPass(pass) / 1e9
}

// lowOrderQs returns positions 0…k−1; highOrderQs returns n−k…n−1 (the
// large power-of-two-stride case of Sec. 3.3).
func lowOrderQs(k int) []int {
	qs := make([]int, k)
	for i := range qs {
		qs[i] = i
	}
	return qs
}

func highOrderQs(n, k int) []int {
	qs := make([]int, k)
	for i := range qs {
		qs[i] = n - k + i
	}
	return qs
}
