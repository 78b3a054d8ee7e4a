package main

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/f32vec"
	"qusim/internal/kernels"
	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
	"qusim/internal/xeb"
)

// Workload sizes. One rep of each workload takes 2–3.5 s on the 2-core
// reference sandbox, so that a 14 s run holds four to six reps and the
// driver's 136 runs fit its total-time cap; the twins are sized so that one
// set-up takes about half a second. Depth 5 is the shallowest supremacy
// circuit whose gates depend on the seed (the generator's first single-qubit
// gate on a qubit is always T).
const (
	supRows, supCols = 6, 4 // the 24-qubit grid of sup24-*
	supDepth         = 5
	pergateRows      = 5 // 5×5: 25 qubits, a 512 MiB state
	pergateCols      = 5
	pergateDepth     = 5
	qftQubits        = 23
	distRanks        = 8
	oocRows, oocCols = 11, 2 // 22 qubits: a 64 MiB state file
	oocDepth         = 16    // three stages, two snapshots
	oocChunkQubits   = 16
	oocPrefetch      = 4
	qaoaQubits       = 16
	qaoaLayers       = 3
	qaoaPoints       = 32

	twinRows, twinCols = 6, 3 // the 18-qubit twin of the supremacy workloads
	twinDepth          = 24
	twinQFTQubits      = 18
	twinChunkQubits    = 12
	twinQAOAPoints     = 4

	f64Tol = 1e-9 // norm and amplitude tolerance of the complex128 paths
	f32Tol = 5e-4 // amplitude tolerance of the complex64 path (norm: 1e-4)
)

// workload is one named entry of the benchmark.
type workload struct {
	name, why string
	// gen generates the circuits the timed region runs from the seed: the
	// same seed gives the same circuits.
	gen func(seed int64) []*circuit.Circuit
	// setup cross-checks the workload's execution path on a small twin (same
	// generator, same seed) and returns the instance that runs cs; dir is a
	// private scratch directory. gen and setup together are the set-up time.
	setup func(cs []*circuit.Circuit, seed int64, dir string, ck *checker) (*instance, error)
}

// instance is one seeded realisation of a workload, ready to be timed.
type instance struct {
	qubits   int // state size, for the computed FLOP and byte counts
	ampBytes int // 16 for complex128 states, 8 for complex64
	// layers holds the per-layer values known after set-up
	// (f32vec.max_amp_err).
	layers map[string]float64
	// The disk and collective probes of the traced pass cost seconds, so
	// they run only where their layer does: probeDisk on the paged
	// workload, probeAlltoall (the shard size in amplitudes) on the
	// distributed one.
	probeDisk     bool
	probeAlltoall int
	// run executes one rep. With a nil tracer it takes the path a caller of
	// the library takes; with a tracer it makes the same calls one by one,
	// each inside a span, and fills outcome.layers.
	run func(tr *tracer) (*outcome, error)
	// verify checks one rep's outputs, outside the timed region.
	verify func(o *outcome, ck *checker)
}

// outcome is what one rep produced.
type outcome struct {
	seconds float64 // the timed region
	root    int     // its span, when traced

	norm, entropy float64
	norms, cuts   []float64 // per sweep point
	plan          *schedule.Plan
	dist          *dist.Result
	dir           string // files the rep left for verify; removed afterwards

	// layers are counts and times only the traced pass collects; kernels
	// are kernel-class totals that do not come from the benchmark's own
	// spans (dist reports them in its profile).
	layers  map[string]float64
	kernels map[string]kernelTotals
}

// timed runs f as the rep's timed region: time to solution, from the first
// call into the library to the reduced result.
func (o *outcome) timed(tr *tracer, f func() error) error {
	if tr != nil {
		o.root = tr.begin("rep", "")
		o.layers = map[string]float64{}
	}
	t0 := time.Now()
	err := f()
	o.seconds = time.Since(t0).Seconds()
	if tr != nil {
		tr.finish(o.root)
	}
	return err
}

var workloads = []workload{
	{
		name:  "sup24-f64",
		why:   "6x4 supremacy depth 5, schedule.Build + Plan.Run on statevec: fused k=5 clusters are ~all of the run, so kernel work must show here and scheduler cost is invisible",
		gen:   genSup24,
		setup: setupSupF64,
	},
	{
		name:  "sup24-f32",
		why:   "same circuit and plan through f32vec.RunPlan: the kernel layer at the other precision; a gain for one precision that costs the other shows, and peak RSS is about half",
		gen:   genSup24,
		setup: setupSupF32,
	},
	{
		name: "sup25-pergate",
		why:  "5x5 supremacy depth 5 on a 512 MiB state (2x the LLC), gate by gate, no scheduler: memory-bound k=1/diagonal sweeps, the plain baseline; predicts no change for scheduler PRs",
		gen: func(seed int64) []*circuit.Circuit {
			return []*circuit.Circuit{supremacy(pergateRows, pergateCols, pergateDepth, seed, false)}
		},
		setup: setupPerGate,
	},
	{
		name:  "qft23-dist8",
		why:   "QFT(23) from the uniform state on 8 in-process ranks (l=20): diagonal sweeps, the global-to-local swap and mpi collectives dominate; the seed is unused (the circuit is fixed)",
		gen:   func(int64) []*circuit.Circuit { return []*circuit.Circuit{circuit.QFT(qftQubits)} },
		setup: setupQFTDist,
	},
	{
		name: "sup22-ooc-ckpt",
		why:  "11x2 supremacy depth 16 on a 64 MiB file-paged state (64 chunks, prefetch 4), checkpoint every stage: the only workload with paging I/O and ckpt shard writes on the blocking path",
		// NewUniform stands in for the initial Hadamard cycle (Sec. 3.6).
		gen: func(seed int64) []*circuit.Circuit {
			return []*circuit.Circuit{supremacy(oocRows, oocCols, oocDepth, seed, true)}
		},
		setup: setupOocCkpt,
	},
	{
		name: "qaoa16-sweep",
		why:  "32 seeded points of 3-layer QAOA on a 16-qubit ring, each Build + Run + MaxCut on a 1 MiB state: plan construction, par dispatch and per-run fixed costs dominate",
		gen: func(seed int64) []*circuit.Circuit {
			sets := circuit.SweepParams(seed, qaoaPoints, 2*qaoaLayers)
			out := make([]*circuit.Circuit, len(sets))
			for i, set := range sets {
				out[i] = circuit.QAOAMaxCutRing(qaoaQubits, set[:qaoaLayers], set[qaoaLayers:])
			}
			return out
		},
		setup: setupQAOASweep,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- shared pieces --------------------------------------------------------

func genSup24(seed int64) []*circuit.Circuit {
	return []*circuit.Circuit{supremacy(supRows, supCols, supDepth, seed, false)}
}

func supremacy(rows, cols, depth int, seed int64, skipH bool) *circuit.Circuit {
	return circuit.Supremacy(circuit.SupremacyOptions{
		Rows: rows, Cols: cols, Depth: depth, Seed: seed, SkipInitialH: skipH,
	})
}

// perGate applies c gate by gate with no scheduling, as qusim.Simulate does.
// With a tracer each gate is one span, classed by the kernel it reaches.
func perGate(tr *tracer, c *circuit.Circuit, v *statevec.Vector) {
	for i := range c.Gates {
		g := &c.Gates[i]
		if tr == nil {
			v.Apply(g.Matrix(), g.Qubits...)
			continue
		}
		name, class := "statevec.cluster", kernelClass(g.K())
		if g.IsDiagonal() {
			name, class = "statevec.diag", "diag"
		}
		tr.do(name, class, func() { v.Apply(g.Matrix(), g.Qubits...) })
	}
}

func kernelClass(k int) string { return fmt.Sprintf("k%d", k) }

// fullPerm extends a plan's local permutation to all n bit locations, as
// Plan.Run does.
func fullPerm(p *schedule.Plan, local []int) []int {
	perm := make([]int, p.N)
	copy(perm, local)
	for q := p.L; q < p.N; q++ {
		perm[q] = q
	}
	return perm
}

// walkF64 executes the plan op by op through statevec's public per-op
// methods — the calls Plan.Run makes, so the result is bitwise equal — with
// one span per call.
func walkF64(tr *tracer, p *schedule.Plan, v *statevec.Vector) error {
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case schedule.OpCluster:
			tr.do("statevec.cluster", kernelClass(len(op.Positions)), func() { v.ApplyDense(op.Matrix, op.Positions...) })
		case schedule.OpDiagonal:
			tr.do("statevec.diag", "diag", func() { v.ApplyDiagonal(op.Diag, op.Positions...) })
		case schedule.OpLocalPerm:
			tr.do("statevec.perm", "perm", func() { v.PermuteBits(fullPerm(p, op.Perm)) })
		case schedule.OpSwap:
			if op.Perm != nil {
				tr.do("statevec.perm", "perm", func() { v.PermuteBits(fullPerm(p, op.Perm)) })
			}
			tr.do("statevec.swapbits", "perm", func() {
				for j := range op.LocalPos {
					v.SwapBits(op.LocalPos[j], op.GlobalPos[j])
				}
			})
		default:
			return fmt.Errorf("walk: unknown op kind %v", op.Kind)
		}
	}
	return nil
}

// walkF32 is walkF64 for the complex64 state. f32vec exports no permutation
// method, so it serves single-node plans only (they have no swaps).
func walkF32(tr *tracer, p *schedule.Plan, v *f32vec.Vector) error {
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case schedule.OpCluster:
			tr.do("f32vec.cluster", kernelClass(len(op.Positions)), func() { v.Apply(op.Matrix, op.Positions) })
		case schedule.OpDiagonal:
			tr.do("f32vec.diag", "diag", func() {
				kernels.ApplyDiagonalF32(v.Amps, kernels.ToComplex64(op.Diag), op.Positions)
			})
		default:
			return fmt.Errorf("walk: f32vec has no public method for a %v op", op.Kind)
		}
	}
	return nil
}

// planLayers returns the exact counts of the last plan built in a rep.
func planLayers(p *schedule.Plan, builds int) map[string]float64 {
	s := p.Stats
	return map[string]float64{
		"schedule.builds":            float64(builds),
		"schedule.stages":            float64(s.Stages),
		"schedule.swaps":             float64(s.Swaps),
		"schedule.clusters":          float64(s.Clusters),
		"schedule.diag_ops":          float64(s.DiagonalOps),
		"schedule.local_perms":       float64(s.LocalPerms),
		"schedule.gates_per_cluster": s.GatesPerCluster,
	}
}

// maxDiff returns the largest |ref[b] − got[p.PermutedIndex(b)]|: got holds
// the plan's result in its final bit layout, ref the per-gate result in
// qubit order.
func maxDiff(ref, got []complex128, p *schedule.Plan) float64 {
	worst := 0.0
	for b, want := range ref {
		d := got[p.PermutedIndex(b)] - want
		worst = max(worst, math.Hypot(real(d), imag(d)))
	}
	return worst
}

// checkSupremacy is the per-rep output check of the supremacy workloads:
// unit norm and an entropy a distribution over 2^n outcomes can have. (The
// Porter–Thomas band is checked on the twin, whose depth reaches it; the
// timed circuits are too shallow to have converged.)
func checkSupremacy(n int, normTol float64) func(o *outcome, ck *checker) {
	return func(o *outcome, ck *checker) {
		ck.near("norm", o.norm, 1, normTol)
		ck.check("entropy in range", o.entropy > 0 && o.entropy <= float64(n)*math.Ln2+normTol, "entropy %.6f outside (0, n ln 2]", o.entropy)
	}
}

// checkPorterThomas holds a deep twin's entropy to the band the workload
// catalog uses: within 5 % of n ln 2 − (1 − γ).
func checkPorterThomas(ck *checker, n int, entropy float64) {
	spt := xeb.PorterThomasEntropy(n)
	r := entropy / spt
	ck.check("twin: entropy/S_PT", r >= 0.95 && r <= 1.05, "entropy %.6f is %.4f of S_PT %.6f, want 0.95–1.05", entropy, r, spt)
}

// supTwin builds the twin of the supremacy workloads — the same generator
// and seed on 18 qubits at the full depth 24 — with its plan at local local
// qubits and the per-gate statevec result the workload's path is compared
// with. Without the initial Hadamard cycle the twin starts, as the workload
// does, from the uniform state.
func supTwin(seed int64, skipH bool, local int) (*circuit.Circuit, *schedule.Plan, *statevec.Vector, error) {
	tc := supremacy(twinRows, twinCols, twinDepth, seed, skipH)
	tp, err := schedule.Build(tc, schedule.DefaultOptions(local))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("twin schedule: %w", err)
	}
	ref := statevec.New(tc.N)
	if skipH {
		ref = statevec.NewUniform(tc.N)
	}
	perGate(nil, tc, ref)
	return tc, tp, ref, nil
}

// reducer is the result reduction both in-memory state types offer.
type reducer interface {
	Norm() float64
	Entropy() float64
}

// scheduledRun is the rep of the two scheduled in-memory workloads: build
// the plan, let exec allocate the state and execute the plan on it (its
// spans go under layer), reduce.
func scheduledRun(c *circuit.Circuit, layer string, exec func(tr *tracer, p *schedule.Plan) (reducer, error)) func(tr *tracer) (*outcome, error) {
	return func(tr *tracer) (*outcome, error) {
		o := &outcome{}
		err := o.timed(tr, func() (err error) {
			tr.do("schedule.build", "", func() { o.plan, err = schedule.Build(c, schedule.DefaultOptions(c.N)) })
			if err != nil {
				return err
			}
			v, err := exec(tr, o.plan)
			if err != nil {
				return err
			}
			tr.do(layer+".reduce", "", func() { o.norm, o.entropy = v.Norm(), v.Entropy() })
			return nil
		})
		if tr != nil && err == nil {
			maps.Copy(o.layers, planLayers(o.plan, 1))
		}
		return o, err
	}
}

// ---- sup24-f64 ------------------------------------------------------------

func setupSupF64(cs []*circuit.Circuit, seed int64, _ string, ck *checker) (*instance, error) {
	c, n := cs[0], cs[0].N

	// Twin: through Plan.Run, the traced walker and per-gate statevec.
	tc, tp, ref, err := supTwin(seed, false, twinRows*twinCols)
	if err != nil {
		return nil, err
	}
	run, walk := statevec.New(tc.N), statevec.New(tc.N)
	if err := tp.Run(run); err != nil {
		return nil, fmt.Errorf("twin run: %w", err)
	}
	if err := walkF64(nil, tp, walk); err != nil {
		return nil, err
	}
	ck.near("twin: Plan.Run vs per-gate", maxDiff(ref.Amps, run.Amps, tp), 0, f64Tol)
	ck.check("twin: op walk bitwise equal to Plan.Run", slices.Equal(run.Amps, walk.Amps), "amplitudes differ")
	checkPorterThomas(ck, tc.N, run.Entropy())

	return &instance{
		qubits: n, ampBytes: 16,
		run: scheduledRun(c, "statevec", func(tr *tracer, p *schedule.Plan) (reducer, error) {
			var v *statevec.Vector
			tr.do("statevec.alloc", "", func() { v = statevec.New(n) })
			if tr == nil {
				return v, p.Run(v)
			}
			return v, walkF64(tr, p, v)
		}),
		verify: checkSupremacy(n, f64Tol),
	}, nil
}

// ---- sup24-f32 ------------------------------------------------------------

func setupSupF32(cs []*circuit.Circuit, seed int64, _ string, ck *checker) (*instance, error) {
	c, n := cs[0], cs[0].N

	tc, tp, ref, err := supTwin(seed, false, twinRows*twinCols)
	if err != nil {
		return nil, err
	}
	run, walk := f32vec.New(tc.N), f32vec.New(tc.N)
	if err := run.RunPlan(tp); err != nil {
		return nil, fmt.Errorf("twin run: %w", err)
	}
	if err := walkF32(nil, tp, walk); err != nil {
		return nil, err
	}
	ampErr := maxDiff(ref.Amps, run.ToDouble().Amps, tp)
	ck.near("twin: RunPlan vs per-gate f64", ampErr, 0, f32Tol)
	ck.check("twin: op walk bitwise equal to RunPlan", slices.Equal(run.Amps, walk.Amps), "amplitudes differ")
	checkPorterThomas(ck, tc.N, run.Entropy())

	return &instance{
		qubits: n, ampBytes: 8, layers: map[string]float64{"f32vec.max_amp_err": ampErr},
		run: scheduledRun(c, "f32vec", func(tr *tracer, p *schedule.Plan) (reducer, error) {
			var v *f32vec.Vector
			tr.do("f32vec.alloc", "", func() { v = f32vec.New(n) })
			if tr == nil {
				return v, v.RunPlan(p)
			}
			return v, walkF32(tr, p, v)
		}),
		verify: checkSupremacy(n, 1e-4),
	}, nil
}

// ---- sup25-pergate --------------------------------------------------------

func setupPerGate(cs []*circuit.Circuit, seed int64, _ string, ck *checker) (*instance, error) {
	c, n := cs[0], cs[0].N

	// Twin: here the per-gate path is the one under test, so the scheduled
	// plan is the independent reference.
	tc, tp, got, err := supTwin(seed, false, twinRows*twinCols)
	if err != nil {
		return nil, err
	}
	ref := statevec.New(tc.N)
	if err := tp.Run(ref); err != nil {
		return nil, fmt.Errorf("twin run: %w", err)
	}
	ck.near("twin: per-gate vs Plan.Run", maxDiff(got.Amps, ref.Amps, tp), 0, f64Tol)
	checkPorterThomas(ck, tc.N, got.Entropy())

	return &instance{
		qubits: n, ampBytes: 16,
		run: func(tr *tracer) (*outcome, error) {
			o := &outcome{}
			err := o.timed(tr, func() error {
				var v *statevec.Vector
				tr.do("statevec.alloc", "", func() { v = statevec.New(n) })
				perGate(tr, c, v)
				tr.do("statevec.reduce", "", func() { o.norm, o.entropy = v.Norm(), v.Entropy() })
				return nil
			})
			return o, err
		},
		verify: checkSupremacy(n, f64Tol),
	}, nil
}

// ---- qft23-dist8 ----------------------------------------------------------

// swapBytes is the computed exchange volume of a plan on ranks ranks: in a
// swap of q qubits every rank keeps one of its 2^q sub-blocks and sends the
// others.
func swapBytes(p *schedule.Plan, ranks int) int64 {
	var total int64
	shard := int64(16) << p.L
	for i := range p.Ops {
		if op := &p.Ops[i]; op.Kind == schedule.OpSwap {
			q := len(op.LocalPos)
			total += int64(ranks) * (shard - shard>>q)
		}
	}
	return total
}

func setupQFTDist(cs []*circuit.Circuit, _ int64, _ string, ck *checker) (*instance, error) {
	c, n := cs[0], cs[0].N
	globals := 0
	for 1<<globals < distRanks {
		globals++
	}

	// Twin: QFT(18) on the same 8 ranks, gathered, against per-gate statevec
	// and (bitwise) against the single-node executor of the same plan.
	tc := circuit.QFT(twinQFTQubits)
	tp, err := schedule.Build(tc, schedule.DefaultOptions(tc.N-globals))
	if err != nil {
		return nil, fmt.Errorf("twin schedule: %w", err)
	}
	res, err := dist.Run(tp, dist.Options{Ranks: distRanks, Init: dist.InitUniform, GatherState: true})
	if err != nil {
		return nil, fmt.Errorf("twin dist run: %w", err)
	}
	ref, single := statevec.NewUniform(tc.N), statevec.NewUniform(tc.N)
	perGate(nil, tc, ref)
	if err := tp.Run(single); err != nil {
		return nil, fmt.Errorf("twin run: %w", err)
	}
	ck.near("twin: dist vs per-gate", maxDiff(ref.Amps, res.Amplitudes, tp), 0, f64Tol)
	ck.check("twin: dist bitwise equal to Plan.Run", slices.Equal(single.Amps, res.Amplitudes), "amplitudes differ")

	return &instance{
		qubits: n, ampBytes: 16, probeAlltoall: (1 << n) / distRanks,
		run: func(tr *tracer) (*outcome, error) {
			o := &outcome{}
			err := o.timed(tr, func() (err error) {
				tr.do("schedule.build", "", func() { o.plan, err = schedule.Build(c, schedule.DefaultOptions(n-globals)) })
				if err != nil {
					return err
				}
				tr.do("dist.run", "", func() {
					o.dist, err = dist.Run(o.plan, dist.Options{Ranks: distRanks, Init: dist.InitUniform, Profile: tr != nil})
				})
				if err != nil {
					return err
				}
				o.norm, o.entropy = o.dist.Norm, o.dist.Entropy
				return nil
			})
			if tr != nil && err == nil {
				maps.Copy(o.layers, planLayers(o.plan, 1))
				maps.Copy(o.layers, map[string]float64{
					"dist.elapsed_s": o.dist.Elapsed.Seconds(),
					"dist.restarts":  float64(o.dist.Restarts),
					"mpi.steps":      float64(o.dist.CommSteps),
					"mpi.bytes":      float64(o.dist.CommBytes),
					"mpi.comm_s":     o.dist.CommElapsed.Seconds(),
				})
				o.kernels = map[string]kernelTotals{}
				for _, e := range o.dist.Profile {
					o.layers["dist."+e.Kind+"_s"] = e.Duration.Seconds()
					// dist's profile is per op kind on the slowest rank; the
					// diagonal and permutation sweeps are kernel classes of
					// their own, clusters are not split by k.
					if e.Kind == "diag" || e.Kind == "perm" {
						o.kernels[e.Kind] = kernelTotals{passes: e.Ops, seconds: e.Duration.Seconds()}
					}
				}
			}
			return o, err
		},
		verify: func(o *outcome, ck *checker) {
			// QFT of the uniform state is |0…0⟩: both anchors are exact.
			ck.near("norm", o.norm, 1, f64Tol)
			ck.check("entropy", math.Abs(o.entropy) < 1e-6, "entropy %.3g, want < 1e-6", o.entropy)
			ck.check("mpi.steps", o.dist.CommSteps == o.plan.Stats.Swaps, "%d collective steps, plan has %d swaps", o.dist.CommSteps, o.plan.Stats.Swaps)
			want := swapBytes(o.plan, distRanks)
			ck.check("mpi.bytes", o.dist.CommBytes == want, "%d bytes exchanged, computed %d", o.dist.CommBytes, want)
		},
	}, nil
}

// ---- sup24-ooc-ckpt -------------------------------------------------------

// oocMeta is the identity oocvec saves its snapshots under (one logical
// shard covering the whole state).
func oocMeta(p *schedule.Plan) ckpt.Meta {
	return ckpt.Meta{PlanHash: p.Fingerprint(), N: p.N, L: p.N, Ranks: 1}
}

func setupOocCkpt(cs []*circuit.Circuit, seed int64, dir string, ck *checker) (*instance, error) {
	c, n := cs[0], cs[0].N

	// Twin: 18 qubits in 64 chunks through the same prefetch pipeline with a
	// checkpoint every stage.
	tc, tp, ref, err := supTwin(seed, true, twinChunkQubits)
	if err != nil {
		return nil, err
	}
	twinDir := filepath.Join(dir, "twin")
	if err := os.MkdirAll(twinDir, 0o755); err != nil {
		return nil, err
	}
	tv, err := oocvec.NewUniform(tc.N, twinChunkQubits, twinDir)
	if err != nil {
		return nil, fmt.Errorf("twin state: %w", err)
	}
	defer tv.Close()
	tv.SetPrefetch(oocPrefetch)
	if _, _, err := tv.RunCheckpointed(tp, &ckpt.Policy{Dir: filepath.Join(twinDir, "ckpt")}, false); err != nil {
		return nil, fmt.Errorf("twin run: %w", err)
	}
	got, err := tv.Amplitudes()
	if err != nil {
		return nil, fmt.Errorf("twin amplitudes: %w", err)
	}
	single := statevec.NewUniform(tc.N)
	if err := tp.Run(single); err != nil {
		return nil, fmt.Errorf("twin run: %w", err)
	}
	ck.near("twin: oocvec vs per-gate", maxDiff(ref.Amps, got, tp), 0, f64Tol)
	ck.check("twin: oocvec bitwise equal to Plan.Run", slices.Equal(single.Amps, got), "amplitudes differ")
	checkPorterThomas(ck, tc.N, single.Entropy())

	stateBytes := float64(int64(16) << n)
	rep := 0
	return &instance{
		qubits: n, ampBytes: 16, probeDisk: true,
		run: func(tr *tracer) (*outcome, error) {
			rep++
			o := &outcome{dir: filepath.Join(dir, fmt.Sprintf("rep%d", rep))}
			ckDir := filepath.Join(o.dir, "ckpt")
			if err := os.MkdirAll(ckDir, 0o755); err != nil {
				return nil, err
			}
			var v *oocvec.Vector
			defer func() {
				if v != nil {
					v.Close()
				}
			}()
			tel := telemetry.Disabled
			if tr != nil {
				tel = telemetry.New()
			}
			written := 0
			err := o.timed(tr, func() (err error) {
				tr.do("schedule.build", "", func() { o.plan, err = schedule.Build(c, schedule.DefaultOptions(oocChunkQubits)) })
				if err != nil {
					return err
				}
				tr.do("oocvec.create", "", func() { v, err = oocvec.NewUniform(n, oocChunkQubits, o.dir) })
				if err != nil {
					return err
				}
				v.SetPrefetch(oocPrefetch)
				if tr == nil {
					_, written, err = v.RunCheckpointed(o.plan, &ckpt.Policy{Dir: ckDir}, false)
				} else {
					// The same work as RunCheckpointed, as separate public
					// calls: the access map the pipeline asks for, the whole
					// plan, then one snapshot per stage boundary. A snapshot
					// streams the whole file whatever it holds, so writing
					// them after the run costs what writing them between the
					// stages does.
					v.SetTelemetry(tel)
					tr.do("schedule.accessmap", "", func() { _, err = o.plan.AccessMap() })
					if err != nil {
						return err
					}
					tr.do("oocvec.run", "", func() { err = v.Run(o.plan) })
					for s := 1; s < o.plan.Stages() && err == nil; s++ {
						tr.do("ckpt.save", "", func() { err = v.Checkpoint(ckDir, o.plan, s, 2) })
						written++
					}
				}
				if err != nil {
					return err
				}
				tr.do("oocvec.read", "", func() {
					if o.norm, err = v.Norm(); err == nil {
						o.entropy, err = v.Entropy()
					}
				})
				return err
			})
			if tr == nil || err != nil {
				return o, err
			}

			// Restore is not part of a checkpointed run that completes; it
			// is timed after the rep, on the snapshot the rep left.
			t0 := time.Now()
			i := tr.begin("ckpt.restore", "")
			man, err := ckpt.FindRestorable(ckDir, oocMeta(o.plan))
			if err == nil && man != nil {
				err = v.Restore(ckDir, man)
			}
			tr.finish(i)
			if err != nil {
				return o, fmt.Errorf("restore: %w", err)
			}
			hits := float64(tel.Counter("oocvec.prefetch_hits").Value())
			misses := float64(tel.Counter("oocvec.prefetch_misses").Value())
			maps.Copy(o.layers, planLayers(o.plan, 1))
			maps.Copy(o.layers, map[string]float64{
				"ckpt.restore_s":         time.Since(t0).Seconds(),
				"ckpt.restore_mbps":      stateBytes / time.Since(t0).Seconds() / 1e6,
				"ckpt.written":           float64(written),
				"ckpt.skipped":           float64(v.CheckpointsSkipped()),
				"oocvec.file_mib":        stateBytes / (1 << 20),
				"oocvec.prefetch_hits":   hits,
				"oocvec.prefetch_misses": misses,
				"oocvec.io_retries":      float64(tel.Counter("oocvec.io_retries").Value()),
			})
			if hits+misses > 0 {
				o.layers["oocvec.hit_ratio"] = hits / (hits + misses)
			}
			return o, nil
		},
		verify: func(o *outcome, ck *checker) {
			checkSupremacy(n, f64Tol)(o, ck)
			ckDir := filepath.Join(o.dir, "ckpt")
			man, err := ckpt.FindRestorable(ckDir, oocMeta(o.plan))
			ok := err == nil && man != nil && man.NextStage == o.plan.Stages()-1
			ck.check("newest snapshot restorable", ok, "FindRestorable: manifest %+v, err %v, want stage %d", man, err, o.plan.Stages()-1)
			if ok {
				err := ckpt.VerifyShard(ckDir, man, 0)
				ck.check("snapshot shard verifies", err == nil, "VerifyShard: %v", err)
			}
		},
	}, nil
}

// ---- qaoa16-sweep ---------------------------------------------------------

func setupQAOASweep(cs []*circuit.Circuit, _ int64, _ string, ck *checker) (*instance, error) {
	n := cs[0].N
	edges := circuit.RingEdges(n)

	// Twin: the workload's own size is the twin's; the first points go
	// through Plan.Run, the walker and per-gate statevec.
	for i, c := range cs[:twinQAOAPoints] {
		p, err := schedule.Build(c, schedule.DefaultOptions(n))
		if err != nil {
			return nil, fmt.Errorf("twin schedule: %w", err)
		}
		ref, run, walk := statevec.New(n), statevec.New(n), statevec.New(n)
		perGate(nil, c, ref)
		if err := p.Run(run); err != nil {
			return nil, fmt.Errorf("twin run: %w", err)
		}
		if err := walkF64(nil, p, walk); err != nil {
			return nil, err
		}
		ck.near(fmt.Sprintf("twin point %d: Plan.Run vs per-gate", i), maxDiff(ref.Amps, run.Amps, p), 0, f64Tol)
		ck.check(fmt.Sprintf("twin point %d: op walk bitwise equal to Plan.Run", i), slices.Equal(run.Amps, walk.Amps), "amplitudes differ")
	}

	return &instance{
		qubits: n, ampBytes: 16,
		run: func(tr *tracer) (*outcome, error) {
			o := &outcome{norms: make([]float64, len(cs)), cuts: make([]float64, len(cs))}
			err := o.timed(tr, func() error {
				for i, c := range cs {
					var perr error
					tr.do("sweep.point", "", func() {
						tr.do("schedule.build", "", func() { o.plan, perr = schedule.Build(c, schedule.DefaultOptions(n)) })
						if perr != nil {
							return
						}
						var v *statevec.Vector
						tr.do("statevec.alloc", "", func() { v = statevec.New(n) })
						if tr == nil {
							perr = o.plan.Run(v)
						} else {
							perr = walkF64(tr, o.plan, v)
						}
						tr.do("statevec.reduce", "", func() {
							o.norms[i] = v.Norm()
							o.cuts[i] = circuit.MaxCutExpectation(v.Probabilities(), edges)
						})
					})
					if perr != nil {
						return fmt.Errorf("sweep point %d: %w", i, perr)
					}
				}
				return nil
			})
			if tr != nil && err == nil {
				maps.Copy(o.layers, planLayers(o.plan, len(cs)))
				points := tr.durationsOf("sweep.point", o.root)
				builds := 0.0
				for _, d := range tr.durationsOf("schedule.build", o.root) {
					builds += d
				}
				total := 0.0
				for _, d := range points {
					total += d
				}
				maps.Copy(o.layers, map[string]float64{
					"sweep.points":       float64(len(points)),
					"sweep.point_ms_p50": 1e3 * quantile(points, 0.50),
					"sweep.point_ms_p95": 1e3 * quantile(points, 0.95),
					"sweep.build_share":  builds / total,
				})
			}
			return o, err
		},
		verify: func(o *outcome, ck *checker) {
			// Point 0 has all angles zero: the state stays uniform and cuts
			// exactly half the ring's edges.
			ck.near("zero-angle cut", o.cuts[0], float64(n)/2, f64Tol)
			for i := range o.cuts {
				ck.near(fmt.Sprintf("point %d norm", i), o.norms[i], 1, f64Tol)
				ck.check(fmt.Sprintf("point %d cut in range", i), o.cuts[i] >= -f64Tol && o.cuts[i] <= float64(n)+f64Tol, "cut %.6f outside [0, %d]", o.cuts[i], n)
			}
		},
	}, nil
}
