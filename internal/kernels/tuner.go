package kernels

import (
	"math/rand"
	"sync/atomic"
	"time"

	"qusim/internal/gate"
)

// What is left of the paper's generate → benchmark → feed back loop
// (Sec. 3.2) once the kernel per machine is fixed: the benchmark. Tune times
// the dense kernels this machine runs, one per k, and the scheduler prices
// its plans with the ratios (schedule.CostsFromTune) instead of the
// compiled-in table. It chooses nothing and changes no state; TuneCached
// keeps the timings across runs.

// Timing is the measured time of this machine's k-qubit kernel.
type Timing struct {
	K          int     `json:"k"`
	NsPerApply float64 `json:"ns_per_apply"` // one pass over the whole state
}

// TuneResult is Tune's report.
type TuneResult struct {
	N       int // state size used: 2^N amplitudes
	Timings []Timing
}

// timingSweeps counts the timings taken — observability for the tests that
// assert a warm cache skips re-benchmarking entirely.
var timingSweeps atomic.Int64

// TimingSweeps returns the number of kernel timings taken so far in this
// process.
//
//qlint:ignore deadcode an observation point: the tuner and tune-cache tests read it to prove a warm cache times nothing
func TimingSweeps() int64 { return timingSweeps.Load() }

// tunePositions spreads k positions over a 2^n state the way the rows the
// compiled-in table is read from do (BenchmarkKernelPrecision: 6, 9, 12, …,
// strands of at least 2^6 amplitudes and strides on both sides of the
// caches), closing up where the state is too small for that.
func tunePositions(n, k int) []int {
	qs := make([]int, k)
	for i := range qs {
		qs[i] = min(6+3*i, n-k+i)
	}
	return qs
}

// Tune times the double-precision kernel for k = 1…kmax on a 2^n state
// vector: one warm-up pass, then the mean of reps (≥ 1) passes.
func Tune(kmax, n, reps int) TuneResult {
	reps = max(reps, 1)
	rng := rand.New(rand.NewSource(42))
	amps := NewAmps[complex128](1 << n)
	amps[0] = 1
	res := TuneResult{N: n}
	for k := 1; k <= min(kmax, n); k++ {
		d := PrepareDense(gate.RandomUnitary(k, rng).Data, tunePositions(n, k), len(amps))
		timingSweeps.Add(1)
		d.Sweep(amps) // warm-up
		start := time.Now()
		for r := 0; r < reps; r++ {
			d.Sweep(amps)
		}
		res.Timings = append(res.Timings, Timing{K: k, NsPerApply: float64(time.Since(start).Nanoseconds()) / float64(reps)})
	}
	return res
}
