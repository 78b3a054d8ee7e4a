package dist

import (
	"runtime"
	"testing"

	"qusim/internal/f32vec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// allocated returns the bytes f allocated (the collector's running total, so
// what was freed meanwhile still counts).
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestRunHoldsNoSecondState: no back end allocates a buffer the size of its
// state to permute or to swap. Eight ranks executing a swap with a fused
// 14-cycle (the QFT plan's, on the benchmark's geometry: 16 MiB shards)
// allocate their shards and, per rank, the two staged pieces of the exchange
// — at most 1.25 × the state — and a multi-cycle permutation of one vector
// allocates far less than a state whichever entry point runs it.
func TestRunHoldsNoSecondState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 128 MiB state")
	}
	const n, l = 23, 20
	fused := &schedule.Plan{N: n, L: l, Ops: []schedule.Op{{
		Kind:     schedule.OpSwap,
		Perm:     []int{0, 1, 2, 3, 4, 5, 17, 18, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19},
		LocalPos: []int{17, 18, 19}, GlobalPos: []int{20, 21, 22},
	}}}
	var res *Result
	got := allocated(func() {
		var err error
		if res, err = Run(fused, Options{Ranks: 8, Init: InitUniform, VerifyChecksums: true}); err != nil {
			t.Fatal(err)
		}
	})
	if state := uint64(16 << n); got > state+state/4 {
		t.Errorf("dist.Run allocated %d bytes for a %d-byte state, want at most 1.25×", got, state)
	}
	if res.CommSteps != 1 || res.CommBytes != 7*(16<<n)/8 {
		t.Errorf("swap counted %d steps and %d bytes, want 1 and %d", res.CommSteps, res.CommBytes, 7*(16<<n)/8)
	}

	const m = 18
	cycle := &schedule.Plan{N: m, L: m, Ops: []schedule.Op{{Kind: schedule.OpLocalPerm, Perm: []int{1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}}}}
	v, s := statevec.NewUniform(m), f32vec.NewUniform(m)
	for name, tc := range map[string]struct {
		state uint64
		run   func() error
	}{
		"Plan.Run":             {16 << m, func() error { return cycle.Run(v) }},
		"f32vec.RunPlan":       {8 << m, func() error { return s.RunPlan(cycle) }},
		"statevec.PermuteBits": {16 << m, func() error { v.PermuteBits(cycle.Ops[0].Perm); return nil }},
	} {
		got := allocated(func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got >= tc.state/4 {
			t.Errorf("%s of a 3-cycle allocated %d bytes beside a %d-byte state", name, got, tc.state)
		}
	}
}
