package schedule

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/kernels"
)

func paperOptions(l, kmax int) Options {
	o := DefaultOptions(l)
	o.KMax = kmax
	o.Costs = PaperCosts()
	return o
}

// TestPaperCostsReproduceParentPlans pins the reduction the cost rule
// promises: under PaperCosts every widening is free and cheapest-per-gate
// is most-gates, so the clusters are those of the greedy algorithm this
// package shipped before the rule (commit 7536100: the cluster counts are
// its). The hashes were re-taken twice: when consecutive diagonals began to
// be folded (foldDiagonals), and when the permutation before a swap became
// a set of transpositions that leaves idle qubits where they sit (emitSwap).
// The second moved only the table1/n36 rows, the ones with a swap whose
// outgoing qubits did not already sit at the top; their cluster counts held.
// Full fingerprints cover fused matrix and folded diagonal entries bit for
// bit and are compared on amd64 only (other targets may contract the
// products into FMAs); structure fingerprints hold everywhere. The pins
// carry the permutation before a swap inside the swap op, as the plans of
// those commits did (foldPerms).
func TestPaperCostsReproduceParentPlans(t *testing.T) {
	sup := func(n int) *circuit.Circuit {
		r, c := circuit.GridForQubits(n)
		return circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 25})
	}
	set := circuit.SweepParams(1, 2, 6)[1]
	qaoa := circuit.QAOAMaxCutRing(16, set[:3], set[3:])
	for _, g := range []struct {
		name            string
		c               *circuit.Circuit
		opts            Options
		clusters        int
		structure, full string
	}{
		{"table1/n30/kmax3", sup(30), paperOptions(30, 3), 85, "e5581ffdcbbfdc001c2aefdeef0a36a14cc3c1bbcb8354a478ef1f96a7091c4b", "d87931f4ad2d2ba05866e6dae5a30361e704deae87aa47c3c247be10cc877e62"},
		{"table1/n30/kmax4", sup(30), paperOptions(30, 4), 57, "def6c3e82db2ecee9d7027b48698e323e303a457f13f2fa6459319bd0c30f381", "818ce6f87e9dcfdc3895946bdcf5f97aed98ca063747c262c20ff77fb8e3b5d8"},
		{"table1/n30/kmax5", sup(30), paperOptions(30, 5), 43, "da058e95da1f9cf501bbd84d8f087ad04cee39554f59cffb1845a76b322734b9", "30ec4c9aff95383e21ab41bf519d9e91ae5cd5da75a7df516f9aa8f11f88231a"},
		{"table1/n36/kmax3", sup(36), paperOptions(30, 3), 106, "330254a1a072f8dfc27b94d3e034489b2bebeefec14b8f5b9063260cd731bacf", "fc7f670a6b90ae6a9dcc4ed06d96b67c0dbb9f4fc5f957b416a93e5bb7dfb96b"},
		{"table1/n36/kmax4", sup(36), paperOptions(30, 4), 71, "00283558dd3637e98846128303c5ce22ebb06a621d6ad85c9f9d9b594c145bea", "082f31b1abd2c123efe9cecc687d0779700f5792163ca22d7ed5dc92f468ad6d"},
		{"table1/n36/kmax5", sup(36), paperOptions(30, 5), 54, "a5961b3f9d1f46131656b536af12115977d6a0138c32dbaf005c9c18833db931", "3fe69f9e3aa60bd1df0c562d5bc1331dc16617c810d1a6b6a9ea8ce6381f77b0"},
		{"qft23/l20", circuit.QFT(23), paperOptions(20, 5), 38, "c0b5b23a6b26428a28873d5655d3569ca6d9021725bb9056a7526f13a822effa", "fc3d4b3309eec33ec7e297c519d4419b6000be2b1683b4c10738a02faf39ddda"},
		{"qaoa16/l16", qaoa, paperOptions(16, 5), 15, "133177a1de2d9b6653611ce02166ea9606f6bda187f2e9b7f4b78ac92eae8ea9", "d74336cab6af1185bba5d802a9cb5a6372757d9776be1d88924d8dab5022356b"},
	} {
		p, err := Build(g.c, g.opts)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		p = foldPerms(p)
		if p.Stats.Clusters != g.clusters {
			t.Errorf("%s: %d clusters, parent built %d", g.name, p.Stats.Clusters, g.clusters)
		}
		if got := p.StructureFingerprint(); got != g.structure {
			t.Errorf("%s: structure fingerprint %s, parent's %s", g.name, got, g.structure)
		}
		if got := p.Fingerprint(); runtime.GOARCH == "amd64" && got != g.full {
			t.Errorf("%s: fingerprint %s, parent's %s", g.name, got, g.full)
		}
	}
}

// foldPerms returns a copy of p in which every OpLocalPerm directly before a
// swap is the swap's Perm, as the builder emitted plans until swaps stopped
// carrying a permutation.
func foldPerms(p *Plan) *Plan {
	q := *p
	q.Ops = nil
	for i := 0; i < len(p.Ops); i++ {
		op := p.Ops[i]
		if op.Kind == OpLocalPerm && i+1 < len(p.Ops) && p.Ops[i+1].Kind == OpSwap {
			op = p.Ops[i+1]
			op.Perm = p.Ops[i].Perm
			i++
		}
		q.Ops = append(q.Ops, op)
	}
	return &q
}

// benchShapes are the circuits of the repository benchmark's scheduled
// workloads (bench/workloads.go) at their local-qubit counts.
func benchShapes() []struct {
	name string
	c    *circuit.Circuit
	l    int
} {
	set := circuit.SweepParams(1, 2, 6)[1]
	return []struct {
		name string
		c    *circuit.Circuit
		l    int
	}{
		{"sup24", circuit.Supremacy(circuit.SupremacyOptions{Rows: 6, Cols: 4, Depth: 5, Seed: 1}), 24},
		{"sup18-twin", circuit.Supremacy(circuit.SupremacyOptions{Rows: 6, Cols: 3, Depth: 24, Seed: 1}), 18},
		{"qft23-dist8", circuit.QFT(23), 20},
		{"sup22-ooc", circuit.Supremacy(circuit.SupremacyOptions{Rows: 11, Cols: 2, Depth: 16, Seed: 1, SkipInitialH: true}), 16},
		{"qaoa16", circuit.QAOAMaxCutRing(16, set[:3], set[3:]), 16},
	}
}

// knee is the widest dense cluster t lets the 1- and 2-qubit gates of the
// bench circuits build: the last k whose extra cost over k−1 such a gate's
// own price can cover.
func knee(t CostTable) int {
	k := 1
	for k < len(t.Dense) && t.dense(k+1)-t.dense(k) <= math.Max(t.dense(2), t.Diag) {
		k++
	}
	return k
}

func TestDefaultPlansStopAtTheKnee(t *testing.T) {
	if got := knee(PaperCosts()); got != 5 {
		t.Errorf("paper table knee %d, want 5 (every k ≤ 5 is memory-bound)", got)
	}
	if got := knee(CostTable{Dense: [5]float64{1, 1.2, 3, 5, 12}, Diag: 0.8}); got != 2 {
		t.Errorf("knee %d for a table that leaves the roof at k = 3, want 2", got)
	}
	// Whichever kernel set a machine runs, its table bounds the dense
	// clusters of the default plans and prices them no dearer than any
	// fixed cap's — all three rows on every host, under explicit costs.
	// The knee is the clusterer's, so the plans compared are its output,
	// before the diagonal fold the table does not price.
	for _, row := range []struct {
		name  string
		costs CostTable
	}{{"avx512", avx512Costs}, {"avx2", avx2Costs}, {"go", goCosts}} {
		costs, kn := row.costs, knee(row.costs)
		for _, s := range benchShapes() {
			name := row.name + "/" + s.name
			opts := DefaultOptions(s.l)
			opts.Costs = costs
			p, err := build(s.c, opts, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			covered, sweeps, wideDiag := 0, 0, false
			for i := range p.Ops {
				switch op := &p.Ops[i]; op.Kind {
				case OpCluster:
					covered += op.GateCount
					if k := len(op.Positions); k > kn {
						t.Errorf("%s: dense cluster on %d qubits, knee is %d", name, k, kn)
					}
				case OpDiagonal:
					covered += op.GateCount
					sweeps++
					wideDiag = wideDiag || len(op.Positions) > kn
				}
			}
			if covered != len(s.c.Gates) {
				t.Errorf("%s: plan covers %d gates, circuit has %d", name, covered, len(s.c.Gates))
			}
			// All-diagonal clusters cost one sweep at any width, so they grow
			// past the knee, to the cap — where the dense clusters left the
			// plan any sweeps (the AVX2 table fuses all of qaoa16's phase gates).
			if kn < opts.KMax && sweeps > 0 && !wideDiag {
				t.Errorf("%s: no diagonal sweep wider than %d qubits; all-diagonal clusters should grow to the cap", name, kn)
			}
			got := costs.PlanCost(p)
			for cap := 1; cap <= 5; cap++ {
				q, err := build(s.c, paperOptions(s.l, cap), false)
				if err != nil {
					t.Fatalf("%s cap %d: %v", name, cap, err)
				}
				if fixed := costs.PlanCost(q); got > fixed {
					t.Errorf("%s: default plan modelled at %.2f passes, fixed cap %d at %.2f", name, got, cap, fixed)
				}
			}
			// Build is a function of (circuit, options): same plan twice, and
			// the zero table is MeasuredCosts.
			folded, _ := Build(s.c, opts)
			if again, _ := Build(s.c, opts); folded.Fingerprint() != again.Fingerprint() {
				t.Errorf("%s: fingerprints differ between builds of the same options", name)
			}
			if costs == MeasuredCosts() {
				if zero, _ := Build(s.c, DefaultOptions(s.l)); folded.Fingerprint() != zero.Fingerprint() {
					t.Errorf("%s: the zero table does not plan as MeasuredCosts", name)
				}
			}
		}
	}
}

// TestAdmissionRule drives the rule on circuits small enough to read: a
// gate joins when cost(k′) − cost(k) ≤ its own price, and of the growth the
// prefix cheapest per gate is kept.
func TestAdmissionRule(t *testing.T) {
	sizes := func(c *circuit.Circuit, costs CostTable) (dense, diag []int) {
		t.Helper()
		o := DefaultOptions(c.N)
		o.Costs = costs
		p := assertPlanEquivalent(t, c, o)
		for _, op := range p.Ops {
			switch op.Kind {
			case OpCluster:
				dense = append(dense, len(op.Positions))
			case OpDiagonal:
				diag = append(diag, len(op.Positions))
			}
		}
		slices.Sort(dense)
		return dense, diag
	}
	hs := circuit.NewCircuit(5)
	hs.Append(circuit.NewH(0), circuit.NewH(1), circuit.NewH(2), circuit.NewH(3))
	for _, g := range []struct {
		name  string
		costs CostTable
		want  []int
	}{
		// Off the roof at k = 3: pairs (1.2 − 1 ≤ 1), never a third
		// (3 − 1.2 > 1).
		{"knee at 2", CostTable{Dense: [5]float64{1, 1.2, 3, 5, 12}, Diag: 0.8}, []int{2, 2}},
		// Every widening is free: one cluster.
		{"paper", PaperCosts(), []int{4}},
		// The fourth gate is admitted (1.9 − 1 ≤ 1) but makes the pass
		// dearer per gate (1.9/4 > 1/3): the three-gate prefix is kept.
		{"k=4 above the roof", CostTable{Dense: [5]float64{1, 1, 1, 1.9, 3}, Diag: 1}, []int{1, 3}},
		// …and kept whole once four gates share the pass for less.
		{"k=4 near the roof", CostTable{Dense: [5]float64{1, 1, 1, 1.3, 3}, Diag: 1}, []int{4}},
	} {
		if dense, _ := sizes(hs, g.costs); !slices.Equal(dense, g.want) {
			t.Errorf("%s: H⊗H⊗H⊗H clustered as %v, want %v", g.name, dense, g.want)
		}
	}
	// A chain of CZs is all diagonal: one sweep at any width up to KMax,
	// under any table — here the default one.
	czs := circuit.NewCircuit(6)
	czs.Append(circuit.NewT(0), circuit.NewCZ(0, 1), circuit.NewCZ(1, 2), circuit.NewCZ(2, 3), circuit.NewCZ(3, 4), circuit.NewT(4))
	if _, diag := sizes(czs, CostTable{}); len(diag) != 1 || diag[0] != 5 {
		t.Errorf("default table: CZ chain swept as %v, want one 5-qubit diagonal", diag)
	}
}

// TestMeasuredCostsMatchBenchFile holds the three compiled-in tables to the
// committed BENCH_kernels.json they were read from: each kernel set's f64
// rows of BenchmarkKernelPrecision over its k1 row, to two decimals.
func TestMeasuredCostsMatchBenchFile(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_kernels.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []struct {
			Name    string
			Metrics map[string]float64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ns := map[string]float64{}
	for _, b := range doc.Benchmarks {
		ns[b.Name] = b.Metrics["ns/op"]
	}
	for set, table := range map[string]CostTable{"avx512": avx512Costs, "avx2": avx2Costs, "go": goCosts} {
		row := func(leaf string) float64 {
			v, k1 := ns["BenchmarkKernelPrecision/"+set+"/"+leaf+"/f64"], ns["BenchmarkKernelPrecision/"+set+"/k1/f64"]
			if v == 0 || k1 == 0 {
				t.Fatalf("BENCH_kernels.json has no %s/%s/f64 row", set, leaf)
			}
			return math.Round(100*v/k1) / 100
		}
		want := CostTable{Diag: row("diag")}
		for k := range want.Dense {
			want.Dense[k] = row(fmt.Sprintf("k%d", k+1))
		}
		if table != want {
			t.Errorf("%s table compiled in as %v, BENCH_kernels.json says %v", set, table, want)
		}
	}
}

// TestBenchFileReductionsAndSpeedups holds the rest of BENCH_kernels.json to
// what the ledger promises: the entropy pass streams the state at no less
// than half the rate of the norm pass (its logarithm hides behind the
// reads), and no derived speedup reads below 1.
func TestBenchFileReductionsAndSpeedups(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_kernels.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []struct {
			Name    string
			Metrics map[string]float64
		}
		Speedups []struct {
			Name, Optimized string
			Speedup         float64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	mbps := map[string]float64{}
	for _, b := range doc.Benchmarks {
		mbps[b.Name] = b.Metrics["MB/s"]
	}
	norm, ent := mbps["BenchmarkReduce/norm/f64"], mbps["BenchmarkReduce/entropy/f64"]
	if norm == 0 || ent < 0.5*norm {
		t.Errorf("BenchmarkReduce: entropy/f64 at %v MB/s, norm/f64 at %v MB/s; want at least half", ent, norm)
	}
	for _, s := range doc.Speedups {
		if s.Speedup < 1 {
			t.Errorf("%s: %s recorded at %.2f× its baseline", s.Name, s.Optimized, s.Speedup)
		}
	}
}

// TestPlanCostPricesNonUnitShare: a sweep is priced by the entries it has
// to multiply. The strict comparison of TestDefaultPlansStopAtTheKnee rests
// on it: priced at a flat Diag each, the 98 sweeps of the AVX2 default plan
// for qft23-dist8 model at 87.44 passes against fixed cap 5's 92 at 85.77,
// though they are the sparser ones (37.78 against 39.19 by share).
func TestPlanCostPricesNonUnitShare(t *testing.T) {
	costs := CostTable{Dense: [5]float64{1, 1, 1, 2, 4}, Diag: 0.8}
	for _, g := range []struct {
		name  string
		gates []circuit.Gate
		want  float64
	}{
		{"CZ", []circuit.Gate{circuit.NewCZ(0, 1)}, 0.8 / 4},
		{"T", []circuit.Gate{circuit.NewT(2)}, 0.8 / 2},
		{"CZ·CZ", []circuit.Gate{circuit.NewCZ(0, 1), circuit.NewCZ(1, 2)}, 0.8 * 2 / 8},
	} {
		c := circuit.NewCircuit(4)
		c.Append(g.gates...)
		o := DefaultOptions(4)
		o.Costs = costs
		p := assertPlanEquivalent(t, c, o)
		if got := costs.PlanCost(p); math.Abs(got-g.want) > 1e-12 {
			t.Errorf("%s: modelled at %v passes, want %v", g.name, got, g.want)
		}
	}
}

func TestCostTableValidation(t *testing.T) {
	c := circuit.GHZ(4)
	for _, bad := range []CostTable{
		{Dense: [5]float64{1, 1, 1, 1, 0}, Diag: 1},
		{Dense: [5]float64{1, -2, 1, 1, 1}, Diag: 1},
		{Dense: [5]float64{1, 1, math.NaN(), 1, 1}, Diag: 1},
		{Dense: [5]float64{1, 1, 1, 1, 1}},
		{Dense: [5]float64{1, 1, 1, 1, 1}, Diag: math.Inf(1)},
	} {
		o := DefaultOptions(4)
		o.Costs = bad
		if _, err := Build(c, o); err == nil {
			t.Errorf("Build accepted cost table %v", bad)
		}
	}
	if got, want := MeasuredCosts().dense(7), MeasuredCosts().Dense[4]*math.Pow(MeasuredCosts().Dense[4]/MeasuredCosts().Dense[3], 2); got != want {
		t.Errorf("dense(7) = %v, want the geometric extrapolation %v", got, want)
	}
	if got := PaperCosts().dense(9); got != 1 {
		t.Errorf("paper table dense(9) = %v, want 1: flat stays flat", got)
	}
}

func TestCostsFromTune(t *testing.T) {
	res := kernels.TuneResult{N: 20, Timings: []kernels.Timing{
		{K: 1, NsPerApply: 100},
		{K: 2, NsPerApply: 150},
		{K: 3, NsPerApply: 400},
		{K: 4, NsPerApply: 900},
		{K: 5, NsPerApply: 0}, // a clock too coarse to tell: the compiled-in ratio stays
		{K: 6, NsPerApply: 5000},
	}}
	got := CostsFromTune(res)
	want := CostTable{Dense: [5]float64{1, 1.5, 4, 9, MeasuredCosts().Dense[4]}, Diag: MeasuredCosts().Diag}
	if got != want {
		t.Errorf("CostsFromTune = %v, want %v", got, want)
	}
	for _, res := range []kernels.TuneResult{{}, {Timings: res.Timings[1:]}} {
		if got := CostsFromTune(res); got != MeasuredCosts() {
			t.Errorf("tune result without a k = 1 timing priced as %v, want MeasuredCosts()", got)
		}
	}
}
