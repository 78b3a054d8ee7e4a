package dist

import (
	"math"
	"math/bits"
	"math/cmplx"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

func supremacy(n, depth int, seed int64, skipH bool) *circuit.Circuit {
	r, c := circuit.GridForQubits(n)
	return circuit.Supremacy(circuit.SupremacyOptions{
		Rows: r, Cols: c, Depth: depth, Seed: seed, SkipInitialH: skipH,
	})
}

// perGateRun is dist.Run of a per-gate plan — RunBaseline's plan when spec2q
// is set and spec1q is not — for the tests that need Options RunBaseline does
// not take: a gathered state, faults, telemetry, another specialization.
// CommSteps is in the paper's unit, as RunBaseline reports it.
func perGateRun(t *testing.T, c *circuit.Circuit, spec2q, spec1q bool, opts Options) *Result {
	t.Helper()
	plan, err := schedule.PerGate(c, c.N-bits.TrailingZeros(uint(opts.Ranks)), func(g *circuit.Gate) bool {
		if g.K() == 1 {
			return spec1q
		}
		return spec2q
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	res.CommSteps = plan.Stats.BaselineGlobalGates
	return res
}

// naive runs the circuit on a single full state vector.
func naive(c *circuit.Circuit, init InitState) *statevec.Vector {
	var v *statevec.Vector
	if init == InitUniform {
		v = statevec.NewUniform(c.N)
	} else {
		v = statevec.New(c.N)
	}
	for _, g := range c.Gates {
		v.Apply(g.Matrix(), g.Qubits...)
	}
	return v
}

// assertDistEqualsNaive runs the scheduled plan across ranks and compares
// every amplitude with naive single-node simulation via the plan's final
// qubit → location mapping.
func assertDistEqualsNaive(t *testing.T, c *circuit.Circuit, ranks int, opts schedule.Options, init InitState) *Result {
	t.Helper()
	g := 0
	for 1<<g < ranks {
		g++
	}
	opts.LocalQubits = c.N - g
	plan, err := schedule.Build(c, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := Run(plan, Options{Ranks: ranks, Init: init, GatherState: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := naive(c, init)
	var maxd float64
	for b := 0; b < 1<<c.N; b++ {
		d := cmplx.Abs(want.Amplitude(b) - res.Amplitudes[plan.PermutedIndex(b)])
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-9 {
		t.Fatalf("ranks=%d: distributed result deviates from naive: max diff %g\n%s",
			ranks, maxd, plan.Summary())
	}
	if math.Abs(res.Norm-1) > 1e-9 {
		t.Errorf("ranks=%d: norm %v", ranks, res.Norm)
	}
	return res
}

func TestDistributedEqualsNaiveAcrossRankCounts(t *testing.T) {
	c := supremacy(12, 12, 21, false)
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		opts := schedule.DefaultOptions(0) // LocalQubits set by helper
		opts.KMax = 3
		res := assertDistEqualsNaive(t, c, ranks, opts, InitZero)
		if ranks > 1 && res.CommSteps == 0 {
			t.Errorf("ranks=%d: no communication steps recorded", ranks)
		}
	}
}

func TestDistributedUniformInit(t *testing.T) {
	c := supremacy(12, 10, 22, true)
	opts := schedule.DefaultOptions(0)
	assertDistEqualsNaive(t, c, 8, opts, InitUniform)
}

func TestDistributedWithT1QSpecialization(t *testing.T) {
	c := supremacy(12, 14, 23, false)
	opts := schedule.DefaultOptions(0)
	opts.SpecializeDiagonal1Q = true
	assertDistEqualsNaive(t, c, 8, opts, InitZero)
}

func TestDistributedQFT(t *testing.T) {
	c := circuit.QFT(10)
	opts := schedule.DefaultOptions(0)
	opts.KMax = 3
	assertDistEqualsNaive(t, c, 4, opts, InitZero)
}

func TestDistributedGHZ(t *testing.T) {
	c := circuit.GHZ(10)
	opts := schedule.DefaultOptions(0)
	assertDistEqualsNaive(t, c, 4, opts, InitZero)
}

func TestCommStepsEqualPlanSwaps(t *testing.T) {
	c := supremacy(12, 16, 24, false)
	opts := schedule.DefaultOptions(8)
	plan, err := schedule.Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 16, Init: InitZero})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSteps != plan.Stats.Swaps {
		t.Errorf("comm steps %d != plan swaps %d", res.CommSteps, plan.Stats.Swaps)
	}
}

func TestSwapCommVolume(t *testing.T) {
	// A full g-qubit swap moves (2^g − 1)/2^g of every rank's 2^l
	// amplitudes across rank boundaries.
	c := supremacy(12, 16, 25, false)
	opts := schedule.DefaultOptions(8)
	plan, err := schedule.Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 16, Init: InitZero})
	if err != nil {
		t.Fatal(err)
	}
	perSwapMax := int64(16) * int64(16) * (1 << 8) // ranks × 2^l amps × 16B upper bound
	if res.CommBytes <= 0 || res.CommBytes > int64(plan.Stats.Swaps)*perSwapMax {
		t.Errorf("comm bytes %d outside (0, %d·%d]", res.CommBytes, plan.Stats.Swaps, perSwapMax)
	}
}

func TestEntropyMatchesSingleNode(t *testing.T) {
	c := supremacy(12, 14, 26, false)
	opts := schedule.DefaultOptions(9)
	plan, err := schedule.Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 8, Init: InitZero})
	if err != nil {
		t.Fatal(err)
	}
	want := naive(c, InitZero).Entropy()
	if math.Abs(res.Entropy-want) > 1e-9 {
		t.Errorf("distributed entropy %v, single-node %v", res.Entropy, want)
	}
}

func TestRunValidation(t *testing.T) {
	c := supremacy(9, 8, 27, false)
	plan, err := schedule.Build(c, schedule.DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(plan, Options{Ranks: 3}); err == nil {
		t.Error("non-power-of-two rank count accepted")
	}
	if _, err := Run(plan, Options{Ranks: 16}); err == nil {
		t.Error("mismatched rank count accepted")
	}
}

func TestProfileOpsConsistentWithPlan(t *testing.T) {
	// Regression: Profile[k].Ops used to be overwritten by whichever rank
	// locked last while Duration took the max, so the two fields could come
	// from different ranks. Every rank executes the identical op sequence,
	// so the reported Ops must equal the plan's op counts exactly.
	c := supremacy(12, 16, 96, false)
	plan, err := schedule.Build(c, schedule.DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 8, Init: InitUniform, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := range plan.Ops {
		counts[plan.Ops[i].Kind.String()]++
	}
	for _, e := range res.Profile {
		if e.Ops != counts[e.Kind] {
			t.Errorf("profile %q reports %d ops, plan contains %d", e.Kind, e.Ops, counts[e.Kind])
		}
		if e.Ops == 0 && e.Duration != 0 {
			t.Errorf("profile %q reports duration %v with zero ops", e.Kind, e.Duration)
		}
	}
}

// --- baseline scheme -------------------------------------------------------

// TestBaselineEqualsNaive: the per-gate scheme is dist.Run of its plan, so at
// every rank count the gathered state is Plan.Run's on one vector bit for bit
// (which keeps it within rounding of gate-by-gate statevec), and every gate
// that communicates moves half of each rank's shard to its partner and back.
func TestBaselineEqualsNaive(t *testing.T) {
	c := supremacy(11, 12, 28, false)
	want := naive(c, InitZero)
	for g, ranks := range []int{1, 2, 4, 8} {
		res := perGateRun(t, c, true, false, Options{Ranks: ranks, Init: InitZero, GatherState: true})
		var maxd float64
		for b := 0; b < 1<<c.N; b++ {
			// Baseline keeps the identity layout: index b maps to itself.
			d := cmplx.Abs(want.Amplitude(b) - res.Amplitudes[b])
			if d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-10 {
			t.Fatalf("ranks=%d: baseline deviates from naive: %g", ranks, maxd)
		}

		l := c.N - g
		plan, err := schedule.PerGate(c, l, func(gt *circuit.Gate) bool { return gt.K() == 2 })
		if err != nil {
			t.Fatal(err)
		}
		single := statevec.New(c.N)
		if err := plan.Run(single); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Amplitudes, single.Amps) {
			t.Errorf("ranks=%d: gathered state differs from Plan.Run of the per-gate plan", ranks)
		}
		if res.CommSteps != plan.Stats.Swaps/2 {
			t.Errorf("ranks=%d: %d steps for %d swaps, want one per communicating gate", ranks, res.CommSteps, plan.Stats.Swaps)
		}
		if perRank := int64(2 * 16 << (l - 1)); res.CommBytes != int64(res.CommSteps)*perRank*int64(ranks) {
			t.Errorf("ranks=%d: %d bytes over %d communicating gates, want %d per rank and gate", ranks, res.CommBytes, res.CommSteps, perRank)
		}
	}
}

// TestBaselineTrafficMatchesPairwiseExchanges pins steps and bytes to what the
// hand-written pairwise half-vector exchanges of [19] counted on the circuits
// of the three tests below (recorded from the commit before the scheme became
// a plan): one step per communicating gate, 2·16·2^(l−1) bytes per rank for
// each that moves data, none for an unspecialized CZ.
func TestBaselineTrafficMatchesPairwiseExchanges(t *testing.T) {
	for _, tc := range []struct {
		n, depth       int
		seed           int64
		ranks          int
		spec2q, spec1q bool
		steps          int
		bytes          int64
	}{
		{11, 12, 29, 8, true, false, 10, 327680},
		{11, 12, 30, 8, true, true, 6, 196608},
		{11, 12, 30, 8, false, false, 14, 327680},
		{12, 20, 31, 16, true, false, 19, 1245184},
	} {
		res := perGateRun(t, supremacy(tc.n, tc.depth, tc.seed, false), tc.spec2q, tc.spec1q, Options{Ranks: tc.ranks, Init: InitZero})
		if res.CommSteps != tc.steps || res.CommBytes != tc.bytes {
			t.Errorf("seed %d spec2q=%v spec1q=%v: %d steps %d bytes, want %d steps %d bytes",
				tc.seed, tc.spec2q, tc.spec1q, res.CommSteps, res.CommBytes, tc.steps, tc.bytes)
		}
	}
}

func TestBaselineCommStepsMatchGlobalGateCount(t *testing.T) {
	c := supremacy(11, 12, 29, false)
	ranks := 8
	l := c.N - 3
	res, err := RunBaseline(c, BaselineOptions{Ranks: ranks, Init: InitZero})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, g := range c.Gates {
		global := false
		for _, q := range g.Qubits {
			if q >= l {
				global = true
			}
		}
		if !global {
			continue
		}
		if g.IsDiagonal() && g.K() >= 2 {
			continue // specialized CZ
		}
		want++
	}
	if res.CommSteps != want {
		t.Errorf("baseline comm steps %d, want %d", res.CommSteps, want)
	}
}

func TestBaselineSpecializationReducesSteps(t *testing.T) {
	c := supremacy(11, 12, 30, false)
	with := perGateRun(t, c, true, true, Options{Ranks: 8, Init: InitZero})
	without := perGateRun(t, c, false, false, Options{Ranks: 8, Init: InitZero})
	if with.CommSteps >= without.CommSteps {
		t.Errorf("specialization did not reduce baseline steps: %d vs %d", with.CommSteps, without.CommSteps)
	}
	if math.Abs(with.Entropy-without.Entropy) > 1e-9 {
		t.Errorf("entropy differs between specialization modes: %v vs %v", with.Entropy, without.Entropy)
	}
}

func TestScheduledBeatsBaselineCommSteps(t *testing.T) {
	// The core multi-node claim: a couple of global-to-local swaps replace
	// dozens of per-gate exchanges.
	c := supremacy(12, 20, 31, false)
	ranks := 16
	opts := schedule.DefaultOptions(c.N - 4)
	plan, err := schedule.Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Run(plan, Options{Ranks: ranks, Init: InitZero})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunBaseline(c, BaselineOptions{Ranks: ranks, Init: InitZero})
	if err != nil {
		t.Fatal(err)
	}
	if sched.CommSteps >= base.CommSteps {
		t.Errorf("scheduled %d steps not below baseline %d", sched.CommSteps, base.CommSteps)
	}
	t.Logf("comm steps: scheduled=%d baseline=%d (%.1fx)", sched.CommSteps, base.CommSteps,
		float64(base.CommSteps)/float64(sched.CommSteps))
	if math.Abs(sched.Entropy-base.Entropy) > 1e-9 {
		t.Errorf("entropies differ: %v vs %v", sched.Entropy, base.Entropy)
	}
}

func TestBaselineRejectsDenseTwoQubitGlobalGate(t *testing.T) {
	c := circuit.NewCircuit(6)
	c.Append(circuit.NewCNOT(5, 4)) // dense 2-qubit gate on global qubits
	_, err := RunBaseline(c, BaselineOptions{Ranks: 4, Init: InitZero})
	if err == nil {
		t.Error("expected error for dense 2-qubit global gate")
	}
}
