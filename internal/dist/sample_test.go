package dist

import (
	"math"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
)

func TestDistributedSamplingMatchesDistribution(t *testing.T) {
	c := supremacy(12, 16, 80, false)
	opts := schedule.DefaultOptions(9)
	plan, err := schedule.Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	shots := 40000
	res, err := Run(plan, Options{Ranks: 8, Init: InitZero, SampleShots: shots, SampleSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != shots {
		t.Fatalf("got %d samples, want %d", len(res.Samples), shots)
	}
	// Compare empirical frequencies against the exact distribution.
	want := naive(c, InitZero)
	counts := make([]int, 1<<c.N)
	for _, b := range res.Samples {
		if b < 0 || b >= len(counts) {
			t.Fatalf("sample %d out of range", b)
		}
		counts[b]++
	}
	// Chi-square-ish check on aggregate: total variation distance must be
	// small for 40k shots over 4096 states.
	var tv float64
	for b, cnt := range counts {
		tv += math.Abs(float64(cnt)/float64(shots) - want.Probability(b))
	}
	tv /= 2
	if tv > 0.20 {
		t.Errorf("total variation distance %v between samples and exact distribution", tv)
	}
	// The mean sampled probability should reflect Porter–Thomas (≈ 2/2^n),
	// not uniform sampling (1/2^n).
	var meanP float64
	for _, b := range res.Samples {
		meanP += want.Probability(b)
	}
	meanP /= float64(shots)
	if meanP < 1.5/float64(int(1)<<c.N) {
		t.Errorf("mean sampled probability %v — looks like uniform sampling, not Born-rule sampling", meanP)
	}
}

func TestDistributedSamplingDeterministicSeed(t *testing.T) {
	c := supremacy(10, 12, 81, false)
	plan, err := schedule.Build(c, schedule.DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(plan, Options{Ranks: 4, Init: InitZero, SampleShots: 100, SampleSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(plan, Options{Ranks: 4, Init: InitZero, SampleShots: 100, SampleSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("shot %d differs across identical runs: %d vs %d", i, a.Samples[i], b.Samples[i])
		}
	}
}

func TestDistributedSamplingZeroWeightRanks(t *testing.T) {
	// The GHZ output has exactly two nonzero amplitudes, so most ranks carry
	// exactly zero probability weight and the rank-selection CDF is full of
	// zero-width buckets. Every shot must land on |0…0⟩ or |1…1⟩.
	c := circuit.GHZ(10)
	plan, err := schedule.Build(c, schedule.DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 4, Init: InitZero, SampleShots: 500, SampleSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Samples {
		if s != 0 && s != (1<<10)-1 {
			t.Fatalf("shot %d sampled zero-probability state %d", i, s)
		}
	}
}

func TestLogicalIndexRoundTrip(t *testing.T) {
	c := supremacy(10, 12, 82, false)
	plan, err := schedule.Build(c, schedule.DefaultOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 1<<c.N; b++ {
		if got := plan.LogicalIndex(plan.PermutedIndex(b)); got != b {
			t.Fatalf("LogicalIndex(PermutedIndex(%d)) = %d", b, got)
		}
	}
}

// TestDistributedSamplingGoldenShots pins the first 32 shots of a seeded
// 4-rank run of a plan priced by PaperCosts, the same plan whatever kernels
// this build has: they move only if either seeded stream — the rank choice
// or the draw within a rank — or its resolution does.
func TestDistributedSamplingGoldenShots(t *testing.T) {
	r, c := circuit.GridForQubits(10)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 12, Seed: 7})
	opts := schedule.DefaultOptions(8)
	opts.Costs = schedule.PaperCosts()
	plan, err := schedule.Build(circ, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 4, Init: InitUniform, SampleShots: 32, SampleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{501, 284, 79, 775, 374, 344, 955, 549, 106, 58, 979, 847, 991, 283, 287, 979,
		963, 53, 930, 723, 581, 39, 61, 118, 581, 528, 973, 496, 375, 164, 417, 213}
	if !slices.Equal(res.Samples, want) {
		t.Errorf("shots %v, want %v", res.Samples, want)
	}
}
