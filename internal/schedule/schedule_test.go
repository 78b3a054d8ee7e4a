package schedule

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/kernels"
	"qusim/internal/statevec"
)

// naiveRun simulates the circuit gate by gate with no scheduling.
func naiveRun(c *circuit.Circuit) *statevec.Vector {
	v := statevec.New(c.N)
	for _, g := range c.Gates {
		v.Apply(g.Matrix(), g.Qubits...)
	}
	return v
}

// assertPlanEquivalent builds a plan with opts and executes it on a single
// node, then compares amplitudes against naive simulation through the
// plan's final qubit → location mapping. Options that name no cost table
// are also held to it under PaperCosts, so every equivalence test covers
// both the narrow clusters of the default table and the wide ones the cap
// alone allows.
func assertPlanEquivalent(t *testing.T, c *circuit.Circuit, opts Options) *Plan {
	t.Helper()
	if opts.Costs == (CostTable{}) {
		paper := opts
		paper.Costs = PaperCosts()
		assertPlanEquivalent(t, c, paper)
	}
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := naiveRun(c)
	got := statevec.New(c.N)
	if err := plan.Run(got); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var maxd float64
	for b := 0; b < 1<<c.N; b++ {
		d := cmplx.Abs(want.Amplitude(b) - got.Amplitude(plan.PermutedIndex(b)))
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-9 {
		t.Fatalf("plan (l=%d kmax=%d policy=%v) deviates from naive simulation: max diff %g\n%s",
			opts.LocalQubits, opts.KMax, opts.SwapPolicy, maxd, plan.Summary())
	}
	return plan
}

func supremacy(n, depth int, seed int64) *circuit.Circuit {
	r, c := circuit.GridForQubits(n)
	return circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: seed})
}

func TestPlanEquivalenceSingleStage(t *testing.T) {
	c := supremacy(12, 12, 1)
	opts := DefaultOptions(12) // l = n: no communication
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.Swaps != 0 {
		t.Errorf("l=n plan has %d swaps", plan.Stats.Swaps)
	}
	if plan.Stats.Stages != 1 {
		t.Errorf("l=n plan has %d stages", plan.Stats.Stages)
	}
}

func TestPlanEquivalenceMultiStage(t *testing.T) {
	for _, l := range []int{6, 8, 10} {
		for _, kmax := range []int{2, 3, 4} {
			c := supremacy(12, 10, 2)
			opts := DefaultOptions(l)
			opts.KMax = kmax
			plan := assertPlanEquivalent(t, c, opts)
			if l < c.N && plan.Stats.Swaps == 0 {
				t.Errorf("l=%d: expected at least one swap", l)
			}
		}
	}
}

func TestPlanEquivalenceAllPolicyCombinations(t *testing.T) {
	c := supremacy(12, 14, 3)
	for _, policy := range []SwapPolicy{SwapGreedy, SwapLowestOrder} {
		for _, mapping := range []MappingPolicy{MapIdentity, MapHeuristic} {
			for _, adjust := range []bool{false, true} {
				for _, spec1q := range []bool{false, true} {
					opts := DefaultOptions(8)
					opts.SwapPolicy = policy
					opts.Mapping = mapping
					opts.AdjustBoundaries = adjust
					opts.SpecializeDiagonal1Q = spec1q
					assertPlanEquivalent(t, c, opts)
				}
			}
		}
	}
}

func TestPlanEquivalenceNoClustering(t *testing.T) {
	c := supremacy(9, 10, 4)
	opts := DefaultOptions(6)
	opts.Clustering = false
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.GatesPerCluster > 1.01 && plan.Stats.Clusters > 0 {
		t.Errorf("no-clustering plan merged gates: %v per cluster", plan.Stats.GatesPerCluster)
	}
}

func TestPlanEquivalenceNoSpecialization(t *testing.T) {
	c := supremacy(9, 12, 5)
	opts := DefaultOptions(6)
	opts.SpecializeDiagonal2Q = false
	opts.SpecializeDiagonal1Q = false
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.DiagonalOps != 0 {
		t.Errorf("specialization disabled but %d global diagonal ops emitted", plan.Stats.DiagonalOps)
	}
}

func TestSpecializationReducesSwaps(t *testing.T) {
	// Sec. 3.5: CZ specialization cuts the communication of 36-qubit
	// circuits by 2x. Verify the ordering on a scaled-down instance.
	c := supremacy(16, 25, 6)
	with := DefaultOptions(10)
	without := DefaultOptions(10)
	without.SpecializeDiagonal2Q = false
	pw, err := Build(c, with)
	if err != nil {
		t.Fatal(err)
	}
	pwo, err := Build(c, without)
	if err != nil {
		t.Fatal(err)
	}
	if pw.Stats.Swaps > pwo.Stats.Swaps {
		t.Errorf("specialization increased swaps: %d with vs %d without", pw.Stats.Swaps, pwo.Stats.Swaps)
	}
	if pw.Stats.Swaps == pwo.Stats.Swaps {
		t.Logf("note: specialization did not reduce swaps on this instance (%d)", pw.Stats.Swaps)
	}
}

func TestGreedyBeatsLowestOrder(t *testing.T) {
	c := supremacy(16, 25, 7)
	greedy := DefaultOptions(10)
	lowest := DefaultOptions(10)
	lowest.SwapPolicy = SwapLowestOrder
	pg, err := Build(c, greedy)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(c, lowest)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Stats.Swaps > pl.Stats.Swaps {
		t.Errorf("greedy search produced more swaps (%d) than the lowest-order baseline (%d)",
			pg.Stats.Swaps, pl.Stats.Swaps)
	}
}

func TestSwapCountBeatsPerGateBaseline(t *testing.T) {
	// The headline claim: a handful of global-to-local swaps replaces the
	// ~50 per-gate communication steps of [5] (Sec. 4.1.2).
	c := supremacy(16, 25, 8)
	opts := DefaultOptions(10)
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.BaselineGlobalGates <= plan.Stats.Swaps {
		t.Errorf("baseline global gates %d not above swap count %d",
			plan.Stats.BaselineGlobalGates, plan.Stats.Swaps)
	}
	ratio := float64(plan.Stats.BaselineGlobalGates) / float64(max(plan.Stats.Swaps, 1))
	if ratio < 4 {
		t.Errorf("communication reduction only %.1fx (baseline %d, swaps %d), expected ≥4x",
			ratio, plan.Stats.BaselineGlobalGates, plan.Stats.Swaps)
	}
	t.Logf("comm steps: baseline=%d (dense %d), ours=%d (%.1fx reduction)",
		plan.Stats.BaselineGlobalGates, plan.Stats.BaselineGlobalGatesDense,
		plan.Stats.Swaps, ratio)
}

func TestClusteringMergesMoreThanKMaxGates(t *testing.T) {
	// Table 1's observation: on average more than kmax gates merge into a
	// kmax-qubit cluster.
	c := supremacy(30, 25, 0)
	for _, kmax := range []int{3, 4, 5} {
		opts := paperOptions(30, kmax)
		plan, err := Build(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.GatesPerCluster < float64(kmax) {
			t.Errorf("kmax=%d: %.2f gates per cluster, want ≥ %d",
				kmax, plan.Stats.GatesPerCluster, kmax)
		}
		t.Logf("kmax=%d: %d clusters, %.2f gates/cluster (paper: %d clusters for 369 gates)",
			kmax, plan.Stats.Clusters, plan.Stats.GatesPerCluster,
			map[int]int{3: 82, 4: 46, 5: 36}[kmax])
	}
}

func TestClusterSizesRespectKMax(t *testing.T) {
	c := supremacy(16, 20, 9)
	opts := DefaultOptions(10)
	opts.KMax = 3
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range plan.Stats.ClusterSizes {
		if k > 3 {
			t.Errorf("cluster of size %d exceeds kmax=3", k)
		}
	}
	for _, op := range plan.Ops {
		if op.Kind == OpCluster && len(op.Positions) > 3 {
			t.Errorf("cluster op on %d positions exceeds kmax=3", len(op.Positions))
		}
	}
}

func TestClusterPositionsAreLocal(t *testing.T) {
	c := supremacy(12, 16, 10)
	opts := DefaultOptions(7)
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range plan.Ops {
		if op.Kind != OpCluster {
			continue
		}
		for _, p := range op.Positions {
			if p >= plan.L {
				t.Errorf("cluster touches global location %d (l=%d)", p, plan.L)
			}
		}
	}
}

func TestDiagonalOpsMayTouchGlobals(t *testing.T) {
	c := supremacy(12, 16, 10)
	opts := DefaultOptions(7)
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	sawGlobal := false
	for _, op := range plan.Ops {
		if op.Kind == OpDiagonal {
			for _, p := range op.Positions {
				if p >= plan.L {
					sawGlobal = true
				}
			}
		}
	}
	if !sawGlobal {
		t.Log("note: no diagonal op touched a global location on this instance")
	}
}

func TestSwapCountIndependentOfLocalQubits(t *testing.T) {
	// Fig. 5a: "the number of global-to-local swaps is mostly independent
	// of the number of local qubits". Scaled to 20 qubits with l in a
	// 4-value window.
	c := supremacy(20, 25, 11)
	var swaps []int
	for _, l := range []int{13, 14, 15, 16} {
		plan, err := Build(c, DefaultOptions(l))
		if err != nil {
			t.Fatal(err)
		}
		swaps = append(swaps, plan.Stats.Swaps)
	}
	min0, max0 := swaps[0], swaps[0]
	for _, s := range swaps {
		if s < min0 {
			min0 = s
		}
		if s > max0 {
			max0 = s
		}
	}
	if max0-min0 > 1 {
		t.Errorf("swap counts vary too much across local-qubit counts: %v", swaps)
	}
}

func TestQFTPlanEquivalence(t *testing.T) {
	// QFT is dominated by diagonal controlled-phase gates: a strong test of
	// the specialization path.
	c := circuit.QFT(10)
	opts := DefaultOptions(6)
	opts.KMax = 3
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.DiagonalOps == 0 {
		t.Error("QFT plan used no specialized diagonal ops")
	}
}

func TestGHZPlanEquivalence(t *testing.T) {
	assertPlanEquivalent(t, circuit.GHZ(11), DefaultOptions(6))
}

func TestRandomCircuitPlanEquivalenceProperty(t *testing.T) {
	// Random circuits mixing dense, diagonal, 1- and 2-qubit gates.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(4)
		c := circuit.NewCircuit(n)
		for i := 0; i < 40; i++ {
			switch rng.Intn(6) {
			case 0:
				c.Append(circuit.NewH(rng.Intn(n)))
			case 1:
				c.Append(circuit.NewT(rng.Intn(n)))
			case 2:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Append(circuit.NewCZ(a, b))
				}
			case 3:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Append(circuit.NewCNOT(a, b))
				}
			case 4:
				c.Append(circuit.NewXHalf(rng.Intn(n)))
			case 5:
				c.Append(circuit.NewRz(rng.Intn(n), rng.Float64()))
			}
		}
		l := 4 + rng.Intn(n-3)
		opts := DefaultOptions(l)
		opts.KMax = 2 + rng.Intn(3)
		if opts.KMax > l {
			opts.KMax = l
		}
		opts.SpecializeDiagonal1Q = rng.Intn(2) == 0
		assertPlanEquivalent(t, c, opts)
	}
}

// TestSwapsCarryNoPermutation: the permutation that brings a swap's
// outgoing qubits to the top local locations is an OpLocalPerm of the swap's
// stage, counted in Stats.LocalPerms, and the swap itself carries none.
func TestSwapsCarryNoPermutation(t *testing.T) {
	c := supremacy(16, 25, 15)
	plan := assertPlanEquivalent(t, c, DefaultOptions(10))
	perms, before := 0, 0
	for i := range plan.Ops {
		switch op := &plan.Ops[i]; op.Kind {
		case OpLocalPerm:
			perms++
		case OpSwap:
			if op.Perm != nil {
				t.Errorf("op %d: swap carries a permutation", i)
			}
			if i > 0 && plan.Ops[i-1].Kind == OpLocalPerm && plan.Ops[i-1].Stage == op.Stage {
				before++
			}
		}
	}
	if before == 0 {
		t.Error("no swap of a multi-stage supremacy plan has its permutation before it")
	}
	if plan.Stats.LocalPerms != perms {
		t.Errorf("Stats.LocalPerms = %d, plan has %d permutations", plan.Stats.LocalPerms, perms)
	}
}

// TestBoundaryPermIsOnePass: the relabeling before a swap is a set of
// disjoint transpositions — each outgoing qubit below l−q trades places with
// a staying qubit in [l−q, l), both in ascending order — so PermuteInPlace
// runs it in one pass; a QFT boundary needs none, its idle qubits already
// sitting at the top; and stage, swap and cluster counts are those of the
// builder that relabeled by a stable partition.
func TestBoundaryPermIsOnePass(t *testing.T) {
	type shape struct {
		name string
		c    *circuit.Circuit
		l    int
	}
	var shapes []shape
	for r := 4; r <= 6; r++ {
		for cols := 4; cols <= 7; cols++ {
			c := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: cols, Depth: 25})
			for l := c.N - 3; l >= c.N-6; l-- {
				shapes = append(shapes, shape{fmt.Sprintf("sup%dx%d/l%d", r, cols, l), c, l})
			}
		}
	}
	for _, n := range []int{12, 18, 23, 30} {
		shapes = append(shapes, shape{fmt.Sprintf("qft%d/l%d", n, n-3), circuit.QFT(n), n - 3})
	}
	pe := circuit.PhaseEstimation(15, 0.3)
	for l := pe.N - 3; l >= pe.N-6; l-- {
		shapes = append(shapes, shape{fmt.Sprintf("pe16/l%d", l), pe, l})
	}
	// Stages, swaps and clusters of the stable-partition builder.
	parent := map[string][3]int{
		"sup4x4/l13": {3, 2, 37}, "sup4x4/l12": {4, 3, 36}, "sup4x4/l11": {5, 4, 37}, "sup4x4/l10": {5, 4, 36},
		"sup4x5/l17": {3, 2, 50}, "sup4x5/l16": {3, 2, 48}, "sup4x5/l15": {4, 3, 48}, "sup4x5/l14": {5, 4, 44},
		"sup4x6/l21": {3, 2, 58}, "sup4x6/l20": {3, 2, 60}, "sup4x6/l19": {3, 2, 61}, "sup4x6/l18": {4, 3, 59},
		"sup4x7/l25": {3, 2, 68}, "sup4x7/l24": {3, 2, 70}, "sup4x7/l23": {3, 2, 69}, "sup4x7/l22": {3, 2, 70},
		"sup5x4/l17": {3, 2, 46}, "sup5x4/l16": {3, 2, 50}, "sup5x4/l15": {3, 2, 47}, "sup5x4/l14": {3, 2, 49},
		"sup5x5/l22": {3, 2, 61}, "sup5x5/l21": {3, 2, 59}, "sup5x5/l20": {3, 2, 64}, "sup5x5/l19": {4, 3, 62},
		"sup5x6/l27": {3, 2, 73}, "sup5x6/l26": {3, 2, 75}, "sup5x6/l25": {3, 2, 74}, "sup5x6/l24": {3, 2, 73},
		"sup5x7/l32": {2, 1, 92}, "sup5x7/l31": {3, 2, 86}, "sup5x7/l30": {3, 2, 91}, "sup5x7/l29": {3, 2, 89},
		"sup6x4/l21": {3, 2, 62}, "sup6x4/l20": {3, 2, 58}, "sup6x4/l19": {3, 2, 61}, "sup6x4/l18": {3, 2, 58},
		"sup6x5/l27": {3, 2, 76}, "sup6x5/l26": {3, 2, 77}, "sup6x5/l25": {3, 2, 76}, "sup6x5/l24": {3, 2, 75},
		"sup6x6/l33": {2, 1, 95}, "sup6x6/l32": {3, 2, 94}, "sup6x6/l31": {3, 2, 95}, "sup6x6/l30": {3, 2, 95},
		"sup6x7/l39": {2, 1, 111}, "sup6x7/l38": {2, 1, 114}, "sup6x7/l37": {3, 2, 110}, "sup6x7/l36": {3, 2, 111},
		"qft12/l9": {2, 1, 9}, "qft18/l15": {2, 1, 26}, "qft23/l20": {2, 1, 46}, "qft30/l27": {2, 1, 87},
		"pe16/l13": {3, 2, 43}, "pe16/l12": {3, 2, 41}, "pe16/l11": {3, 2, 39}, "pe16/l10": {4, 3, 35},
	}
	// Cluster counts the location tie-break moved: keeping a different idle
	// qubit changes which trailing clusters adjustBoundary may defer.
	moved := map[string]int{"sup6x7/l39": 113}
	for _, sh := range shapes {
		opts := DefaultOptions(sh.l)
		opts.Costs = avx2Costs // the same plans under every kernel set
		plan, err := Build(sh.c, opts)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		s, want := plan.Stats, parent[sh.name]
		if c, ok := moved[sh.name]; ok {
			want[2] = c
		}
		if got := [3]int{s.Stages, s.Swaps, s.Clusters}; got != want {
			t.Errorf("%s: stages, swaps, clusters %v, want %v", sh.name, got, want)
		}
		if strings.HasPrefix(sh.name, "qft") && s.LocalPerms != 0 {
			t.Errorf("%s: %d local permutations, want none", sh.name, s.LocalPerms)
		}
		for i, op := range plan.Ops {
			if op.Kind != OpLocalPerm {
				continue
			}
			if first, _ := kernels.CompileBitPermutation(op.Perm).Involutions(); !slices.Equal(first, identityPerm(sh.l)) {
				t.Errorf("%s: op %d: permutation %v is not an involution", sh.name, i, op.Perm)
			}
			if i+1 == len(plan.Ops) || plan.Ops[i+1].Kind != OpSwap {
				t.Fatalf("%s: op %d: permutation not followed by a swap", sh.name, i)
			}
			q := len(plan.Ops[i+1].LocalPos)
			if !slices.Equal(plan.Ops[i+1].LocalPos, identityPerm(sh.l)[sh.l-q:]) {
				t.Fatalf("%s: op %d: swap of %v, not of the top local locations", sh.name, i, plan.Ops[i+1].LocalPos)
			}
			last := sh.l - q - 1 // an outgoing qubit's new location, ascending
			for p, np := range op.Perm {
				if np == p {
					continue
				}
				if p < sh.l-q && np <= last || p >= sh.l-q && np >= sh.l-q {
					t.Errorf("%s: op %d: location %d goes to %d in %v", sh.name, i, p, np, op.Perm)
				}
				if p < sh.l-q {
					last = np
				}
			}
		}
	}
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestOptionsValidation(t *testing.T) {
	c := supremacy(9, 8, 1)
	if _, err := Build(c, Options{LocalQubits: 0, KMax: 1}); err == nil {
		t.Error("LocalQubits=0 accepted")
	}
	if _, err := Build(c, Options{LocalQubits: 5, KMax: 0}); err == nil {
		t.Error("KMax=0 accepted")
	}
	if _, err := Build(c, Options{LocalQubits: 3, KMax: 5}); err == nil {
		t.Error("KMax > l accepted")
	}
}

func TestStatsGateCoverage(t *testing.T) {
	c := supremacy(16, 20, 12)
	plan, err := Build(c, DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, op := range plan.Ops {
		if op.Kind == OpCluster || op.Kind == OpDiagonal {
			covered += op.GateCount
		}
	}
	if covered != len(c.Gates) {
		t.Errorf("ops cover %d gates, circuit has %d", covered, len(c.Gates))
	}
	if plan.Stats.Gates != len(c.Gates) {
		t.Errorf("Stats.Gates = %d, want %d", plan.Stats.Gates, len(c.Gates))
	}
}

func TestFinalPosIsPermutation(t *testing.T) {
	c := supremacy(12, 18, 13)
	plan, err := Build(c, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range [][]int{plan.InitialPos, plan.FinalPos} {
		seen := make([]bool, plan.N)
		for _, p := range pos {
			if p < 0 || p >= plan.N || seen[p] {
				t.Fatalf("bad position mapping %v", pos)
			}
			seen[p] = true
		}
	}
}

func TestUniformInitIndependentOfMapping(t *testing.T) {
	// Starting from the uniform state, the plan result must match naive
	// simulation of the SkipInitialH circuit regardless of layout.
	n := 10
	r, cgrid := circuit.GridForQubits(n)
	c := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: cgrid, Depth: 12, Seed: 14, SkipInitialH: true})
	plan, err := Build(c, DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	want := statevec.NewUniform(n)
	for _, g := range c.Gates {
		want.Apply(g.Matrix(), g.Qubits...)
	}
	got := statevec.NewUniform(n)
	if err := plan.Run(got); err != nil {
		t.Fatal(err)
	}
	var maxd float64
	for b := 0; b < 1<<n; b++ {
		d := cmplx.Abs(want.Amplitude(b) - got.Amplitude(plan.PermutedIndex(b)))
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-9 {
		t.Errorf("uniform-init plan deviates: %g", maxd)
	}
	if math.Abs(got.Norm()-1) > 1e-9 {
		t.Errorf("norm drift: %v", got.Norm())
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDefaultOptionsKMaxFive(t *testing.T) {
	if got := DefaultOptions(12).KMax; got != 5 {
		t.Errorf("DefaultOptions(12).KMax = %d, want 5", got)
	}
	// Small local windows clamp KMax so validate still accepts the options.
	for _, l := range []int{1, 3, 4} {
		opts := DefaultOptions(l)
		if opts.KMax != l {
			t.Errorf("DefaultOptions(%d).KMax = %d, want clamped to %d", l, opts.KMax, l)
		}
		if err := opts.validate(12); err != nil {
			t.Errorf("DefaultOptions(%d) does not validate: %v", l, err)
		}
	}
}

func TestPlanEquivalenceKMaxFive(t *testing.T) {
	c := supremacy(12, 16, 6)
	for _, l := range []int{8, 12} {
		plan := assertPlanEquivalent(t, c, paperOptions(l, 5))
		sawFive := false
		for i := range plan.Ops {
			op := &plan.Ops[i]
			if op.Kind == OpCluster {
				if k := len(op.Positions); k > 5 {
					t.Fatalf("l=%d: cluster with %d > 5 qubits", l, k)
				} else if k == 5 {
					sawFive = true
				}
			}
		}
		if !sawFive {
			t.Errorf("l=%d: kmax=5 plan built no 5-qubit cluster on a depth-16 circuit", l)
		}
	}
}
