package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/dist"
	"qusim/internal/f32vec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// small is a 12-qubit member of the timed circuit family.
func small(seed int64) *circuit.Circuit { return supremacy(4, 3, 16, seed, false) }

// The traced pass is only worth reading if it computes what the untraced
// pass computes: the op walkers must end bitwise equal to Plan.Run / RunPlan,
// including on a multi-stage plan with permutations and swaps.
func TestWalkersMatchExecutors(t *testing.T) {
	c := small(3)
	for _, local := range []int{c.N, c.N - 3} {
		p, err := schedule.Build(c, schedule.DefaultOptions(local))
		if err != nil {
			t.Fatal(err)
		}
		run, walk := statevec.New(c.N), statevec.New(c.N)
		if err := p.Run(run); err != nil {
			t.Fatal(err)
		}
		if err := walkF64(newTracer("test"), p, walk); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(run.Amps, walk.Amps) {
			t.Errorf("l=%d: walkF64 differs from Plan.Run", local)
		}
		if local < c.N && p.Stats.Swaps == 0 {
			t.Errorf("l=%d: plan has no swap, the walker's swap path is untested", local)
		}
	}

	p, err := schedule.Build(c, schedule.DefaultOptions(c.N))
	if err != nil {
		t.Fatal(err)
	}
	run, walk := f32vec.New(c.N), f32vec.New(c.N)
	if err := run.RunPlan(p); err != nil {
		t.Fatal(err)
	}
	if err := walkF32(newTracer("test"), p, walk); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(run.Amps, walk.Amps) {
		t.Error("walkF32 differs from RunPlan")
	}
}

func circuitText(t *testing.T, cs []*circuit.Circuit) string {
	t.Helper()
	var b bytes.Buffer
	for _, c := range cs {
		if err := circuit.WriteText(&b, c); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// The same seed must give the same inputs and the same exact counts; another
// seed must give other circuits wherever the workload is seeded at all.
func TestWorkloadsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.gen(11), w.gen(11), w.gen(12)
		if circuitText(t, a) != circuitText(t, b) {
			t.Errorf("%s: seed 11 generated two different circuit sets", w.name)
		}
		differs := circuitText(t, a) != circuitText(t, other)
		if seeded := w.name != "qft23-dist8"; differs != seeded {
			t.Errorf("%s: circuits differ between seeds = %v, want %v", w.name, differs, seeded)
		}
		for i := range a[:min(len(a), 3)] {
			pa, err := schedule.Build(a[i], schedule.DefaultOptions(a[i].N))
			if err != nil {
				t.Fatal(err)
			}
			pb, err := schedule.Build(b[i], schedule.DefaultOptions(b[i].N))
			if err != nil {
				t.Fatal(err)
			}
			if len(a[i].Gates) != len(b[i].Gates) || pa.Fingerprint() != pb.Fingerprint() {
				t.Errorf("%s: circuit %d schedules differently on the same seed", w.name, i)
			}
		}
	}
}

// mpi.bytes is checked against swapBytes on every dist rep; hold the formula
// to the transport's own count on a small plan.
func TestSwapBytesMatchesTraffic(t *testing.T) {
	c := small(5)
	p, err := schedule.Build(c, schedule.DefaultOptions(c.N-3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.Run(p, dist.Options{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Swaps == 0 || res.CommSteps != p.Stats.Swaps {
		t.Fatalf("%d collective steps for %d swaps", res.CommSteps, p.Stats.Swaps)
	}
	if got, want := swapBytes(p, 8), res.CommBytes; got != want {
		t.Errorf("swapBytes = %d, transport counted %d", got, want)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// ../BENCHMARK.json describes this program to the driver: the two must name
// the same workloads and metrics, with the same units and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	legal := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		legal(w.name, "count")
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		legal(m.name, m.unit)
		j := bj.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Bound != m.bound || j.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, j, m)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) || len(perLayerMetrics) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d (limit 128)", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		legal(m.name, m.unit)
		j := bj.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || (j.Better != "lower" && j.Better != "higher") {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, j, m)
		}
	}
}

// A traced rep through a real instance: self times are never negative, they
// add up to the rep, and every value the rep reports is a listed metric.
func TestTracedRepAccounting(t *testing.T) {
	c := small(7)
	tr := newTracer("test")
	o := &outcome{}
	err := o.timed(tr, func() (err error) {
		tr.do("schedule.build", "", func() { o.plan, err = schedule.Build(c, schedule.DefaultOptions(c.N-2)) })
		if err != nil {
			return err
		}
		var v *statevec.Vector
		tr.do("statevec.alloc", "", func() { v = statevec.New(c.N) })
		tr.do("sweep.point", "", func() { err = walkF64(tr, o.plan, v) })
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, s := range tr.selfTimes() {
		if s < 0 {
			t.Errorf("span %d (%s) has negative self time %v", i, tr.spans[i].name, s)
		}
		sum += s.Seconds()
	}
	prof := tr.profile(o.root)
	if diff := sum - prof.wall; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("self times sum to %.9f s, the rep took %.9f s", sum, prof.wall)
	}
	if prof.byName["statevec.cluster"] <= 0 || prof.kernels["k5"].passes+prof.kernels["k4"].passes == 0 {
		t.Errorf("no cluster spans recorded: %+v", prof.kernels)
	}

	listed := map[string]bool{}
	for _, m := range perLayerMetrics {
		listed[m.name] = true
	}
	for name := range planLayers(o.plan, 1) {
		if !listed[name] {
			t.Errorf("planLayers reports %q, which is not a listed metric", name)
		}
	}
	inst := &instance{qubits: c.N, ampBytes: 16}
	for name := range kernelLayers(prof.kernels, inst, map[string]float64{"host.triad_gbps": 10, "host.fma_gflops": 10}) {
		if !listed[name] {
			t.Errorf("kernelLayers reports %q, which is not a listed metric", name)
		}
	}

	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args struct{ Parent int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(tr.spans) || doc.TraceEvents[0].Args.Parent != -1 {
		t.Errorf("trace has %d events for %d spans", len(doc.TraceEvents), len(tr.spans))
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.95); got < 4.79 || got > 4.81 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}
