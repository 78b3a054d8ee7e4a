package schedule

import (
	"fmt"
	"math"

	"qusim/internal/kernels"
)

// CostTable is the kernels' price list the clustering decides with: the
// relative cost of one pass over the state for a dense k-qubit kernel,
// k = 1…5, and for one diagonal sweep. Only ratios matter. The paper reads
// the fused-gate size off the machine (Sec. 3.3, Fig. 2: every k ≤ 5 kernel
// is memory-bound, so merging gates is free); the table is that reading in
// a form the scheduler can act on, gate by gate.
//
// The zero value means MeasuredCosts, so an Options literal that never
// mentions costs plans for the kernels this repository ships.
type CostTable struct {
	// Dense[k-1] prices one dense k-qubit pass. Wider gates extrapolate
	// geometrically from the last step, Dense[4]·(Dense[4]/Dense[3])^(k−5).
	Dense [5]float64
	// Diag prices one diagonal sweep, whatever its width.
	Diag float64
}

// The three kernel sets as BENCH_kernels.json records them:
// BenchmarkKernelPrecision/<set> k1…k5 and diag, f64 ns/op over the set's
// k1, on a 1 GiB state. The AVX2+FMA kernels stay on the memory roof
// through k = 3 and leave it slowly; the AVX-512 kernels do the same
// arithmetic in half the instructions and leave it later still; the pure-Go
// kernels leave it at k = 3 and fast. Every diagonal sweep streams the state
// once with one multiply per amplitude. Refresh the constants from
// `make bench-kernels` when the kernels change
// (TestMeasuredCostsMatchBenchFile compares them).
//
// goCosts is not yet the generated pure-Go kernels' price: it was read from
// the hand-unrolled ones they replaced, under purego on an x86 with FMA.
// No reading of the generated set (an x86 with FMA at GOAMD64=v1 and v3,
// and one without FMA) has been taken where the set runs in production —
// arm64 is unmeasured — and every one prices a k = 2 pass at 1.45 k = 1
// passes or more, where the seed search builds dearer plans than no search
// (ROADMAP 3(a)). Re-read it once 3(a) has landed.
var (
	avx512Costs = CostTable{Dense: [5]float64{1, 1.19, 1.21, 2.13, 4.4}, Diag: 1.04}
	avx2Costs   = CostTable{Dense: [5]float64{1, 0.99, 1.02, 1.79, 3.03}, Diag: 0.77}
	goCosts     = CostTable{Dense: [5]float64{1, 1.16, 2.87, 4.75, 12.22}, Diag: 0.72}
)

// MeasuredCosts is the table of the kernel set this machine runs
// (kernels.ISA): what every back end executes a default plan with.
func MeasuredCosts() CostTable {
	switch kernels.ISA() {
	case "avx512":
		return avx512Costs
	case "avx2":
		return avx2Costs
	}
	return goCosts
}

// PaperCosts is the machine of the paper: every k ≤ 5 kernel and the
// diagonal sweep sit on the memory roof, one pass costs one pass. Under it
// every merge is free and the clustering is the greedy algorithm of
// Sec. 3.6.1; internal/harness reproduces Table 1 and Fig. 5 with it.
func PaperCosts() CostTable {
	return CostTable{Dense: [5]float64{1, 1, 1, 1, 1}, Diag: 1}
}

// CostsFromTune prices the dense kernels from this machine's own timings,
// relative to k = 1. The tuner does not time the diagonal sweep; it is
// memory-bound like the k = 1 kernel, so it keeps MeasuredCosts' ratio to
// it, as do the rows of any k the result does not cover.
func CostsFromTune(res kernels.TuneResult) CostTable {
	var ns [5]float64
	for _, tm := range res.Timings {
		if tm.K >= 1 && tm.K <= len(ns) && tm.NsPerApply > 0 {
			ns[tm.K-1] = tm.NsPerApply
		}
	}
	t := MeasuredCosts()
	if ns[0] == 0 {
		return t
	}
	for k, v := range ns {
		if v > 0 {
			t.Dense[k] = v / ns[0]
		}
	}
	return t
}

// resolve maps the zero value to MeasuredCosts.
func (t CostTable) resolve() CostTable {
	if t == (CostTable{}) {
		return MeasuredCosts()
	}
	return t
}

func (t CostTable) validate() error {
	for k, c := range t.Dense {
		if !(c > 0) || math.IsInf(c, 0) {
			return fmt.Errorf("schedule: cost of a dense k=%d pass must be positive and finite, got %v", k+1, c)
		}
	}
	if !(t.Diag > 0) || math.IsInf(t.Diag, 0) {
		return fmt.Errorf("schedule: cost of a diagonal sweep must be positive and finite, got %v", t.Diag)
	}
	return nil
}

// dense prices one dense k-qubit pass (k ≥ 0; a 0-qubit gate is a scale).
func (t CostTable) dense(k int) float64 {
	n := len(t.Dense)
	if k < 1 {
		k = 1
	}
	if k <= n {
		return t.Dense[k-1]
	}
	return t.Dense[n-1] * math.Pow(t.Dense[n-1]/t.Dense[n-2], float64(k-n))
}

// cluster prices one pass of a k-qubit cluster: a diagonal sweep when all
// its members are diagonal, a dense pass otherwise.
func (t CostTable) cluster(k int, diagonal bool) float64 {
	if diagonal {
		return t.Diag
	}
	return t.dense(k)
}

// PlanCost is the modelled kernel cost of p: the table's price of every
// cluster and diagonal op, in k = 1 passes under MeasuredCosts. A diagonal
// op is priced by the share of its entries that are not 1 — the sweep skips
// the runs of unit entries, so a lone controlled-phase moves a quarter of
// the state — which is what ranks plans that differ in how many phase gates
// they leave as sweeps; the clustering itself decides with the flat Diag.
// Permutations and swaps are not priced.
func (t CostTable) PlanCost(p *Plan) float64 {
	t = t.resolve()
	total := 0.0
	for i := range p.Ops {
		switch op := &p.Ops[i]; op.Kind {
		case OpCluster:
			total += t.dense(len(op.Positions))
		case OpDiagonal:
			nonUnit := 0
			for _, d := range op.Diag {
				if d != 1 {
					nonUnit++
				}
			}
			total += t.Diag * float64(nonUnit) / float64(len(op.Diag))
		}
	}
	return total
}
