package qusim

// Cross-subsystem integration tests: the same circuit simulated through
// every execution path in the repository must agree amplitude-for-
// amplitude — naive single-node, scheduled single-node plan, distributed
// across ranks, per-gate baseline, out-of-core file-backed, and single
// precision (to reduced tolerance).

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/dist"
	"qusim/internal/f32vec"
	"qusim/internal/gate"
	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/xeb"
)

const (
	integN     = 14
	integDepth = 20
	integRanks = 8
	integL     = integN - 3
)

func integCircuit(t testing.TB) *circuit.Circuit {
	r, c := circuit.GridForQubits(integN)
	return circuit.Supremacy(circuit.SupremacyOptions{
		Rows: r, Cols: c, Depth: integDepth, Seed: 77, SkipInitialH: true,
	})
}

func integPlan(t testing.TB, circ *circuit.Circuit) *schedule.Plan {
	plan, err := schedule.Build(circ, schedule.DefaultOptions(integL))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func integReference(circ *circuit.Circuit) *statevec.Vector {
	v := statevec.NewUniform(circ.N)
	for i := range circ.Gates {
		g := &circ.Gates[i]
		v.Apply(g.Matrix(), g.Qubits...)
	}
	return v
}

func TestAllExecutionPathsAgree(t *testing.T) {
	circ := integCircuit(t)
	plan := integPlan(t, circ)
	ref := integReference(circ)

	// Path 1: single-node plan execution.
	planned := statevec.NewUniform(circ.N)
	if err := plan.Run(planned); err != nil {
		t.Fatal(err)
	}
	// Path 2: distributed.
	dres, err := dist.Run(plan, dist.Options{Ranks: integRanks, Init: dist.InitUniform, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}
	// Path 3: per-gate baseline, RunBaseline's plan run with the state gathered.
	bplan, err := schedule.PerGate(circ, integL, func(g *circuit.Gate) bool { return g.K() > 1 })
	if err != nil {
		t.Fatal(err)
	}
	bres, err := dist.Run(bplan, dist.Options{Ranks: integRanks, Init: dist.InitUniform, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}
	// Path 4: out-of-core.
	ooc, err := oocvec.NewUniform(circ.N, integL, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ooc.Close()
	if err := ooc.Run(plan); err != nil {
		t.Fatal(err)
	}
	oocAmps, err := ooc.Amplitudes()
	if err != nil {
		t.Fatal(err)
	}

	var maxPlan, maxDist, maxBase, maxOoc float64
	for b := 0; b < 1<<circ.N; b++ {
		want := ref.Amplitude(b)
		pi := plan.PermutedIndex(b)
		maxPlan = math.Max(maxPlan, cmplx.Abs(want-planned.Amplitude(pi)))
		maxDist = math.Max(maxDist, cmplx.Abs(want-dres.Amplitudes[pi]))
		maxBase = math.Max(maxBase, cmplx.Abs(want-bres.Amplitudes[b]))
		maxOoc = math.Max(maxOoc, cmplx.Abs(want-oocAmps[pi]))
	}
	for name, d := range map[string]float64{
		"scheduled single-node": maxPlan,
		"distributed":           maxDist,
		"per-gate baseline":     maxBase,
		"out-of-core":           maxOoc,
	} {
		if d > 1e-9 {
			t.Errorf("%s path deviates from naive simulation: max diff %g", name, d)
		}
	}
}

func TestSinglePrecisionPathAgrees(t *testing.T) {
	circ := integCircuit(t)
	ref := integReference(circ)
	s := f32vec.Prepare(statevec.StartUniform, circ.N)
	for i := range circ.Gates {
		g := &circ.Gates[i]
		qs := append([]int(nil), g.Qubits...)
		m := g.Matrix()
		if !sort.IntsAreSorted(qs) {
			idx := make([]int, len(qs))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return qs[idx[a]] < qs[idx[b]] })
			perm := make([]int, len(qs))
			for rank, j := range idx {
				perm[j] = rank
			}
			m = gate.PermuteQubits(m, perm)
			sort.Ints(qs)
		}
		s.Apply(m, qs)
	}
	if d := s.MaxDiff(ref); d > 1e-4 {
		t.Errorf("single-precision path max diff %g", d)
	}
}

func TestEntropyConsistentAcrossPaths(t *testing.T) {
	circ := integCircuit(t)
	plan := integPlan(t, circ)
	ref := integReference(circ)
	want := ref.Entropy()

	dres, err := dist.Run(plan, dist.Options{Ranks: integRanks, Init: dist.InitUniform})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dres.Entropy-want) > 1e-9 {
		t.Errorf("distributed entropy %v, want %v", dres.Entropy, want)
	}
	ooc, err := oocvec.NewUniform(circ.N, integL, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ooc.Close()
	if err := ooc.Run(plan); err != nil {
		t.Fatal(err)
	}
	on, oe, err := ooc.NormEntropy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(oe-want) > 1e-9 || math.Abs(on-1) > 1e-9 {
		t.Errorf("out-of-core (norm, entropy) = (%v, %v), want (1, %v)", on, oe, want)
	}
	sv := statevec.NewUniform(circ.N)
	if err := plan.Run(sv); err != nil {
		t.Fatal(err)
	}
	if sn, se := sv.NormEntropy(); math.Abs(se-want) > 1e-9 || math.Abs(sn-1) > 1e-9 {
		t.Errorf("scheduled single-node (norm, entropy) = (%v, %v), want (1, %v)", sn, se, want)
	}
	// Single precision, at the tolerance its amplitudes are held to.
	fv := f32vec.Prepare(statevec.StartUniform, circ.N)
	if err := fv.RunPlan(plan); err != nil {
		t.Fatal(err)
	}
	if fn, fe := fv.NormEntropy(); math.Abs(fe-want) > 1e-4 || math.Abs(fn-1) > 1e-4 {
		t.Errorf("single-precision (norm, entropy) = (%v, %v), want (1, %v)", fn, fe, want)
	}
	// The physics check: deep supremacy output is Porter-Thomas.
	if math.Abs(want-xeb.PorterThomasEntropy(circ.N)) > 0.15 {
		t.Errorf("entropy %v far from Porter-Thomas %v", want, xeb.PorterThomasEntropy(circ.N))
	}
}

func TestDistributedSamplesScoreHighXEB(t *testing.T) {
	circ := integCircuit(t)
	plan := integPlan(t, circ)
	ref := integReference(circ)
	shots := 20000
	res, err := dist.Run(plan, dist.Options{
		Ranks: integRanks, Init: dist.InitUniform, SampleShots: shots, SampleSeed: 123,
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := ref.Probabilities()
	lin, err := xeb.LinearXEB(circ.N, probs, res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lin-1) > 0.15 {
		t.Errorf("linear XEB of distributed samples = %v, want ≈ 1 (ideal sampler)", lin)
	}
}

func TestSerializedPlanDistributedRun(t *testing.T) {
	circ := integCircuit(t)
	plan := integPlan(t, circ)
	var buf bytes.Buffer
	if err := schedule.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	plan2, err := schedule.ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dist.Run(plan, dist.Options{Ranks: integRanks, Init: dist.InitUniform})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dist.Run(plan2, dist.Options{Ranks: integRanks, Init: dist.InitUniform})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Entropy-b.Entropy) > 1e-12 {
		t.Errorf("serialized plan gives different entropy: %v vs %v", a.Entropy, b.Entropy)
	}
}

func TestMeasurementAfterDistributedGather(t *testing.T) {
	circ := integCircuit(t)
	plan := integPlan(t, circ)
	res, err := dist.Run(plan, dist.Options{Ranks: integRanks, Init: dist.InitUniform, GatherState: true})
	if err != nil {
		t.Fatal(err)
	}
	v := statevec.FromAmplitudes(res.Amplitudes)
	if math.Abs(v.Norm()-1) > 1e-9 {
		t.Fatalf("gathered state has norm %v", v.Norm())
	}
	for _, b := range v.Sample(rand.New(rand.NewSource(9)), 100) {
		if v.Probability(b) < 1e-12 {
			t.Errorf("measured outcome %d has probability %v", b, v.Probability(b))
		}
	}
}
