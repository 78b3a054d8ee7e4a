package dist

import (
	"runtime"
	"testing"

	"qusim/internal/circuit"
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
// state to permute or to swap. Eight ranks executing a swap after a 14-cycle
// permutation (the QFT plan's, on the benchmark's geometry: 16 MiB shards)
// allocate their shards and, per rank, the two staged pieces of the exchange
// — at most 1.25 × the state — and a multi-cycle permutation of one vector
// allocates far less than a state whichever entry point runs it.
func TestRunHoldsNoSecondState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 128 MiB state")
	}
	const n, l = 23, 20
	swap := &schedule.Plan{N: n, L: l, Ops: []schedule.Op{
		{Kind: schedule.OpLocalPerm, Perm: []int{0, 1, 2, 3, 4, 5, 17, 18, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19}},
		{Kind: schedule.OpSwap, LocalPos: []int{17, 18, 19}, GlobalPos: []int{20, 21, 22}},
	}}
	var res *Result
	got := allocated(func() {
		var err error
		if res, err = Run(swap, Options{Ranks: 8, Init: InitUniform}); err != nil {
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

// TestSampledRunHoldsNoCDF: sampling adds no buffer per amplitude. Eight
// ranks run a 23-qubit supremacy circuit (16 MiB shards) and draw 10⁴ shots
// within the 1.25 × the state the run without shots keeps to; a CDF per
// rank, one float64 per amplitude, would add half the state.
func TestSampledRunHoldsNoCDF(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 128 MiB state")
	}
	const n, l = 23, 20
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: n, Cols: 1, Depth: 10, Seed: 1})
	plan, err := schedule.Build(circ, schedule.DefaultOptions(l))
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	got := allocated(func() {
		if res, err = Run(plan, Options{Ranks: 8, Init: InitUniform, SampleShots: 10_000, SampleSeed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("dist.Run with 10⁴ shots allocated %d bytes, %.2f × the state", got, float64(got)/float64(16<<n))
	if len(res.Samples) != 10_000 {
		t.Fatalf("got %d samples, want 10⁴", len(res.Samples))
	}
	if state := uint64(16 << n); got > state+state/4 {
		t.Errorf("dist.Run with 10⁴ shots allocated %d bytes for a %d-byte state (%.2f×), want at most 1.25×", got, state, float64(got)/float64(state))
	}
}
