package kernels

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qusim/internal/gate"
)

// The autotuner replaces the paper's code-generation / benchmarking feedback
// loop (Sec. 3.2): instead of generating C++ kernels and timing them, it
// times the pre-built Go kernel variants (and block sizes for the Split
// kernel) on this machine and records the fastest choice per
// (k, stride class, precision). statevec and f32vec use the selection
// through the Auto variant; TuneCached persists the table across runs.

// StrideClass partitions gate applications by their memory-access pattern:
// a gate whose highest qubit position is below strideHighBit walks the
// state in cache-resident spans, while one touching a higher position
// gathers at large power-of-two strides — the cache/TLB contrast of
// Sec. 3.3 (Fig. 6/9) that can flip which kernel variant wins.
type StrideClass int

const (
	// StrideLow covers gates whose positions are all < strideHighBit.
	StrideLow StrideClass = iota
	// StrideHigh covers gates touching a position ≥ strideHighBit.
	StrideHigh
)

// strideHighBit is the position above which a gate's 2^q-amplitude stride
// (≥ 64 KiB in double precision) has left L1 behind.
const strideHighBit = 12

func (s StrideClass) String() string {
	switch s {
	case StrideLow:
		return "low"
	case StrideHigh:
		return "high"
	}
	return fmt.Sprintf("StrideClass(%d)", int(s))
}

// StrideClassOf classifies a sorted qubit-position set by its largest
// stride.
func StrideClassOf(qs []int) StrideClass {
	for _, q := range qs {
		if q >= strideHighBit {
			return StrideHigh
		}
	}
	return StrideLow
}

// selKey identifies one autotuner selection slot.
type selKey struct {
	k      int
	stride StrideClass
	f32    bool
}

var (
	tunerMu  sync.RWMutex
	selected = map[selKey]Variant{}
)

// SelectedFor returns the tuned variant for k-qubit gates of the given
// stride class and precision. When no tuning has run it is SIMD where this
// machine has an assembly kernel for k and Specialized otherwise.
func SelectedFor(k int, stride StrideClass, f32 bool) Variant {
	tunerMu.RLock()
	defer tunerMu.RUnlock()
	if v, ok := selected[selKey{k, stride, f32}]; ok {
		return v
	}
	if hasSIMD && k >= 1 && k <= simdMaxK {
		return SIMD
	}
	return Specialized
}

// SetSelectedFor overrides the tuned variant for one
// (k, stride class, precision) slot.
func SetSelectedFor(k int, stride StrideClass, f32 bool, v Variant) {
	tunerMu.Lock()
	defer tunerMu.Unlock()
	selected[selKey{k, stride, f32}] = v
}

// Selected returns the tuned double-precision low-stride variant for
// k-qubit gates — the summary view the harness tables report.
func Selected(k int) Variant { return SelectedFor(k, StrideLow, false) }

// SetSelected overrides the tuned double-precision variant for k across
// both stride classes (used by tests and the Fig. 2 experiment driver).
func SetSelected(k int, v Variant) {
	SetSelectedFor(k, StrideLow, false, v)
	SetSelectedFor(k, StrideHigh, false, v)
}

// resetSelections clears the tuner table (tests only).
func resetSelections() {
	tunerMu.Lock()
	defer tunerMu.Unlock()
	selected = map[selKey]Variant{}
}

// Timing records the measured time of one kernel variant.
type Timing struct {
	K          int
	Stride     StrideClass
	F32        bool
	Variant    Variant
	NsPerApply float64 // nanoseconds per full-state application
	Best       bool
}

// TuneResult is the autotuner's report.
type TuneResult struct {
	N       int // state size used: 2^N amplitudes
	Timings []Timing
}

// timingSweeps counts timeVariant invocations — observability for the
// tests that assert a warm tuner cache skips re-benchmarking entirely.
var timingSweeps atomic.Int64

// TimingSweeps returns the number of kernel timing sweeps run so far in
// this process.
func TimingSweeps() int64 { return timingSweeps.Load() }

// pickBest returns the fastest variant among the timings, tracking
// "no winner yet" with an explicit flag: a 0.0 sentinel would let a variant
// that legitimately times at 0 ns (coarse clocks, tiny states) reset the
// comparison and mis-pick the winner.
func pickBest(ts []Timing) (Variant, float64) {
	best, bestNs, found := Specialized, 0.0, false
	for _, t := range ts {
		if !found || t.NsPerApply < bestNs {
			best, bestNs, found = t.Variant, t.NsPerApply, true
		}
	}
	return best, bestNs
}

// markBest flags the timing entries matching the winning variant.
func markBest(ts []Timing, best Variant) {
	for i := range ts {
		if ts[i].Variant == best {
			ts[i].Best = true
		}
	}
}

// tuneQubitSets returns the position sets Tune sweeps for a k-qubit gate on
// a 2^n state: the low-order positions always, and the highest-order
// positions when they actually fall into the high-stride class (on small
// states every position is cache-local and a second sweep would just
// duplicate the low-stride key).
func tuneQubitSets(n, k int) [][]int {
	low := make([]int, k)
	for j := range low {
		low[j] = j
	}
	sets := [][]int{low}
	high := make([]int, k)
	for j := range high {
		high[j] = n - k + j
	}
	if StrideClassOf(high) == StrideHigh {
		sets = append(sets, high)
	}
	return sets
}

// Tune benchmarks every variant for k = 1…kmax on a 2^n state vector — in
// both precisions and, when the state is large enough to tell them apart,
// for both stride classes — and records the fastest per slot. reps controls
// averaging (≥1). The chosen variants become the Auto selection.
func Tune(kmax, n, reps int) TuneResult {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	amps := make([]complex128, 1<<n)
	amps[0] = 1
	scratch := make([]complex128, len(amps))
	amps32 := make([]complex64, 1<<n)
	amps32[0] = 1
	scratch32 := make([]complex64, len(amps32))
	res := TuneResult{N: n}
	for k := 1; k <= kmax; k++ {
		u := gate.RandomUnitary(k, rng)
		u32 := ToComplex64(u.Data)
		for _, qs := range tuneQubitSets(n, k) {
			sc := StrideClassOf(qs)
			for _, f32 := range []bool{false, true} {
				start := len(res.Timings)
				for _, v := range Variants() {
					var ns float64
					if f32 {
						ns = timeVariantF32(v, amps32, scratch32, u32, qs, reps)
					} else {
						ns = timeVariant(v, amps, scratch, u.Data, qs, reps)
					}
					res.Timings = append(res.Timings, Timing{
						K: k, Stride: sc, F32: f32, Variant: v, NsPerApply: ns,
					})
				}
				group := res.Timings[start:]
				best, _ := pickBest(group)
				markBest(group, best)
				SetSelectedFor(k, sc, f32, best)
			}
		}
	}
	return res
}

// TuneSplitBlock searches the column block size for the Split kernel on a
// 2^n vector with a k-qubit gate — the "determine the block size using an
// automatic code-generation / benchmarking feedback loop" of Sec. 3.2 —
// and installs the winner. It returns the chosen block size. The sweep
// state is restored via defer: a panicking variant re-installs the
// pre-sweep block size instead of leaving a half-tuned global behind.
func TuneSplitBlock(k, n, reps int) int {
	rng := rand.New(rand.NewSource(43))
	amps := make([]complex128, 1<<n)
	amps[0] = 1
	u := gate.RandomUnitary(k, rng)
	qs := make([]int, k)
	for j := range qs {
		qs[j] = j
	}
	old := splitBlock
	best, bestNs, found := old, 0.0, false
	defer func() {
		if found {
			SetSplitBlock(best)
		} else {
			SetSplitBlock(old)
		}
	}()
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		if b > 1<<k {
			break
		}
		SetSplitBlock(b)
		ns := timeVariant(Split, amps, nil, u.Data, qs, reps)
		if !found || ns < bestNs {
			best, bestNs, found = b, ns, true
		}
	}
	return best
}

func timeVariant(v Variant, amps, scratch, m []complex128, qs []int, reps int) float64 {
	timingSweeps.Add(1)
	src, dst := amps, scratch
	step := func() {
		if v == Naive {
			applyNaive(dst, src, m, qs)
			src, dst = dst, src
		} else {
			Apply(v, src, m, qs, nil)
		}
	}
	step() // warm-up
	start := time.Now()
	for r := 0; r < reps; r++ {
		step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

func timeVariantF32(v Variant, amps, scratch, m []complex64, qs []int, reps int) float64 {
	timingSweeps.Add(1)
	src, dst := amps, scratch
	step := func() {
		if v == Naive {
			applyNaiveF32(dst, src, m, qs)
			src, dst = dst, src
		} else {
			ApplyF32(v, src, m, qs, nil)
		}
	}
	step() // warm-up
	start := time.Now()
	for r := 0; r < reps; r++ {
		step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}
