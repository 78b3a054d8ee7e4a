// Command qsim simulates quantum circuits — single-node or across simulated
// MPI ranks with the paper's scheduling optimizations.
//
// Examples:
//
//	qsim -qubits 20 -depth 25                 # supremacy circuit, 1 rank
//	qsim -qubits 24 -depth 25 -ranks 8        # distributed, 8 ranks
//	qsim -circuit qft -qubits 20              # QFT
//	qsim -file circ.txt -ranks 4 -baseline    # per-gate reference scheme
//	qsim -qubits 24 -ranks 8 -checkpoint-dir ck          # snapshot at stage boundaries
//	qsim -qubits 24 -ranks 8 -checkpoint-dir ck -resume  # continue after a crash
//	qsim -qubits 20 -ranks 4 -trace out.json -metrics    # per-rank trace + metrics dump
//	qsim -qubits 28 -ooc -ooc-chunk 22 -ooc-prefetch 4   # out-of-core, prefetch pipeline
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/f32vec"
	"qusim/internal/kernels"
	"qusim/internal/oocvec"
	"qusim/internal/par"
	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

func main() {
	var (
		kind      = flag.String("circuit", "supremacy", "circuit family: supremacy, qft, ghz, bv, random")
		qubits    = flag.Int("qubits", 20, "number of qubits")
		depth     = flag.Int("depth", 25, "supremacy circuit depth (clock cycles after the Hadamard layer)")
		seed      = flag.Int64("seed", 0, "random seed")
		ranks     = flag.Int("ranks", 1, "simulated MPI ranks (power of two)")
		kmax      = flag.Int("kmax", schedule.DefaultOptions(0).KMax, "cap on the fused-gate size (clamped to local qubits); below it the scheduler's kernel cost table decides how far to fuse")
		f32       = flag.Bool("f32", false, "single-precision (complex64) state vector — half the memory per amplitude, single node only")
		baseline  = flag.Bool("baseline", false, "plan with the per-gate scheme of [5] (no fusion, two half-vector exchanges per dense gate on a global qubit) instead of the scheduler")
		spec1q    = flag.Bool("spec1q", false, "specialize diagonal 1-qubit gates (median-hard mode)")
		file      = flag.String("file", "", "read circuit from file (GRCS-like text format)")
		planFile  = flag.String("plan", "", "execute a plan saved by qsched -save instead of scheduling")
		tune      = flag.Bool("tune", false, "time this machine's kernels first and schedule by the timings instead of the compiled-in cost table")
		tuneCache = flag.String("tune-cache", "", "with -tune: keep the timings in this JSON file; a warm cache skips the timing sweeps")
		workers   = flag.Int("workers", 0, "parallel workers per rank (0 = GOMAXPROCS)")
		shots     = flag.Int("sample", 0, "draw this many samples from the output distribution")
		profile   = flag.Bool("profile", false, "print a per-op-kind time breakdown")
		verbose   = flag.Bool("v", false, "print the plan summary and, after the run, how much of the state sat on 2 MiB pages")

		ckptDir   = flag.String("checkpoint-dir", "", "commit crash-consistent snapshots into this directory at stage boundaries")
		ckptEvery = flag.Int("checkpoint-every", 1, "snapshot every N completed stages")
		resume    = flag.Bool("resume", false, "resume from the newest valid snapshot in -checkpoint-dir")
		commDL    = flag.Duration("comm-deadline", 0, "abort a run whose collectives stall longer than this (0 = rely on exact dead-rank detection)")

		traceFile = flag.String("trace", "", "write per-rank Chrome trace-event JSON to this file (open in chrome://tracing)")
		metrics   = flag.Bool("metrics", false, "print the telemetry metrics dump after the run")

		ooc         = flag.Bool("ooc", false, "run out-of-core: state in a file, processed in chunks")
		oocChunk    = flag.Int("ooc-chunk", 0, "out-of-core chunk qubits l (2^l amplitudes in memory; default qubits-4)")
		oocPrefetch = flag.Int("ooc-prefetch", 0, "chunks read ahead of compute, each stage being one fused pass over the file (0 = no read-ahead: read, compute and write take turns)")
		oocDir      = flag.String("ooc-dir", "", "directory for the out-of-core state file (default: system temp)")
	)
	flag.Parse()
	given := map[string]bool{
		"-f32": *f32, "-ooc": *ooc, "-baseline": *baseline,
		"-sample": *shots > 0, "-profile": *profile, "-checkpoint-dir": *ckptDir != "", "-resume": *resume,
		"-tune": *tune, "-tune-cache": *tuneCache != "", "-plan": *planFile != "",
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "kmax" {
			given["-kmax"] = true
		}
	})
	if err := checkFlags(*ranks, given); err != nil {
		fatal(err)
	}
	if *workers > 0 {
		par.SetWorkers(*workers)
	}

	// -trace / -metrics arm the telemetry layer across every subsystem; the
	// pool and checkpoint hooks are process-global, the engine hook rides in
	// dist.Options. -v reads the mem.* gauges from it.
	tel := telemetry.Disabled
	if *traceFile != "" || *metrics || *verbose {
		tel = telemetry.New()
		par.SetTelemetry(tel)
		ckpt.SetTelemetry(tel)
	}

	circ, err := buildCircuit(*kind, *qubits, *depth, *seed, *file)
	if err != nil {
		fatal(err)
	}
	sched := schedFlags{kmax: *kmax, spec1q: *spec1q, planFile: *planFile, perGate: *baseline}
	if *tune {
		// A pass over more than the last-level cache, which is what the
		// compiled-in table prices: the run's own state, up to 256 MiB.
		n := min(circ.N, 24)
		var res kernels.TuneResult
		if *tuneCache != "" {
			cached, hit, terr := kernels.TuneCached(*tuneCache, 5, n, 2)
			if terr != nil {
				fmt.Fprintf(os.Stderr, "qsim: tuner cache: %v\n", terr)
			}
			if hit {
				fmt.Printf("tuner: cache hit (%s), skipping the timing sweeps\n", *tuneCache)
			} else {
				fmt.Printf("timing the %s kernels on 2^%d amplitudes (cache -> %s)...\n", kernels.ISA(), n, *tuneCache)
			}
			res = cached
		} else {
			fmt.Printf("timing the %s kernels on 2^%d amplitudes...\n", kernels.ISA(), n)
			res = kernels.Tune(5, n, 2)
		}
		for _, t := range res.Timings {
			fmt.Printf("  k=%d %.2f ms/sweep\n", t.K, t.NsPerApply/1e6)
		}
		sched.costs = schedule.CostsFromTune(res)
		fmt.Printf("  relative pass cost k=1..5 %.2f, diagonal %.2f\n", sched.costs.Dense, sched.costs.Diag)
		if *planFile != "" {
			fmt.Println("  not used: -plan executes a saved plan, nothing is scheduled")
		}
	}

	if *f32 {
		runF32(circ, sched, tel, *verbose, *shots, *seed)
		flushTelemetry(tel, *traceFile, *metrics)
		return
	}

	if *ooc {
		if err := runOutOfCore(circ, tel, oocOptions{
			chunk: *oocChunk, prefetch: *oocPrefetch, dir: *oocDir,
			sched: sched, verbose: *verbose,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
		}); err != nil {
			fatal(err)
		}
		flushTelemetry(tel, *traceFile, *metrics)
		return
	}

	plan := sched.plan(circ, circ.N-bits.TrailingZeros(uint(*ranks)))
	if *verbose {
		fmt.Print(plan.Summary())
	}
	opts := dist.Options{
		Ranks: *ranks, Init: dist.InitUniform,
		SampleShots: *shots, SampleSeed: *seed, Profile: *profile,
		Resume: *resume, CommDeadline: *commDL,
		Telemetry: tel,
	}
	if *ckptDir != "" {
		opts.Checkpoint = &ckpt.Policy{Dir: *ckptDir, EveryStages: *ckptEvery}
	}
	res, err := runDist(plan, opts, *baseline)
	if err != nil {
		fatal(err)
	}
	report(circ, res, plan)
	if *ckptDir != "" {
		fmt.Printf("ckpt:    %d snapshots committed, %d restored, %d restarts\n",
			res.CheckpointsWritten, res.CheckpointsRestored, res.Restarts)
	}
	if *profile {
		fmt.Println("profile (slowest rank):")
		ops := 0
		for _, e := range res.Profile {
			if e.Ops == 0 {
				continue
			}
			fmt.Printf("  %-8s %4d ops  %8.3fs\n", e.Kind, e.Ops, e.Duration.Seconds())
			ops += e.Ops
		}
		// Consecutive diagonals and low-position clusters share one pass,
		// applied block by block (DESIGN §12.2); an op inside such a run is
		// timed by its share of the run.
		fmt.Printf("  %d ops in %d passes over each rank's shard, %d of them blocked runs\n",
			ops, res.ProfilePasses, res.ProfileRuns)
	}
	if *verbose {
		reportPages(tel, 16<<plan.L)
	}
	printSamples(circ.N, res.Samples)
	flushTelemetry(tel, *traceFile, *metrics)
}

// runDist runs plan on the ranks of opts. A -baseline run reports its
// communication steps in the paper's unit, one per communicating gate, as
// dist.RunBaseline does: a dense gate on a global qubit is one step, not its
// two exchanges.
func runDist(plan *schedule.Plan, opts dist.Options, baseline bool) (*dist.Result, error) {
	res, err := dist.Run(plan, opts)
	if err == nil && baseline {
		res.CommSteps = plan.Stats.BaselineGlobalGates
	}
	return res, err
}

// printSamples prints the first ten of the drawn basis states, if any.
func printSamples(n int, samples []int) {
	if len(samples) == 0 {
		return
	}
	fmt.Printf("samples (%d shots, first 10):\n", len(samples))
	for _, b := range samples[:min(len(samples), 10)] {
		fmt.Printf("  |%0*b⟩\n", n, b)
	}
}

// flushTelemetry writes the trace file and/or prints the metrics dump once
// the run has completed.
//
//qlint:ignore atomicrename the trace export is observability output, not checkpoint durability data; a torn write costs a trace, not a snapshot
func flushTelemetry(tel *telemetry.Telemetry, traceFile string, metrics bool) {
	if !tel.Enabled() {
		return
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fatal(err)
		}
		if err := tel.WriteTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:   %d spans -> %s (open in chrome://tracing)\n", tel.SpanCount(), traceFile)
	}
	if metrics {
		fmt.Println("metrics:")
		if err := tel.WriteMetrics(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// checkFlags rejects, before any state is allocated, the flag combinations a
// run would otherwise silently ignore: each mode flag heads the list of what
// its path does not honour.
func checkFlags(ranks int, given map[string]bool) error {
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return fmt.Errorf("ranks must be a power of two, got %d", ranks)
	}
	given["-ranks > 1"] = ranks > 1
	for _, mode := range [][]string{
		{"-f32", "-ranks > 1", "-baseline", "-ooc", "-profile", "-checkpoint-dir", "-resume"},
		{"-ooc", "-ranks > 1", "-baseline", "-sample", "-profile"},
		{"-baseline", "-plan", "-tune", "-kmax"},
	} {
		for _, other := range mode[1:] {
			if given[mode[0]] && given[other] {
				return fmt.Errorf("%s cannot be combined with %s", mode[0], other)
			}
		}
	}
	if given["-resume"] && !given["-checkpoint-dir"] {
		return fmt.Errorf("-resume needs -checkpoint-dir")
	}
	if given["-tune-cache"] && !given["-tune"] {
		return fmt.Errorf("-tune-cache does nothing without -tune")
	}
	return nil
}

// schedFlags carries what decides the plan of a run.
type schedFlags struct {
	kmax     int
	spec1q   bool
	planFile string
	perGate  bool // -baseline: the per-gate scheme of [5] plans, not the scheduler
	// costs is this machine's table after -tune, else the zero value:
	// the scheduler's compiled-in one.
	costs schedule.CostTable
}

// plan reads the plan saved in -plan or, without one, schedules circ at l
// local qubits. It exits on a circuit the chosen planner cannot place, before
// any state exists.
func (s schedFlags) plan(circ *circuit.Circuit, l int) *schedule.Plan {
	if s.planFile != "" {
		f, err := os.Open(s.planFile)
		if err != nil {
			fatal(err)
		}
		plan, err := schedule.ReadPlan(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		return plan
	}
	if s.perGate {
		plan, err := schedule.PerGate(circ, l, func(g *circuit.Gate) bool { return g.K() > 1 || s.spec1q })
		if err != nil {
			fatal(err)
		}
		return plan
	}
	opts := schedule.DefaultOptions(l)
	// The -kmax cap is bounded by the local-qubit count so small runs
	// still validate.
	opts.KMax = min(s.kmax, l)
	opts.SpecializeDiagonal1Q = s.spec1q
	opts.Costs = s.costs
	plan, err := schedule.Build(circ, opts)
	if err != nil {
		fatal(err)
	}
	return plan
}

type oocOptions struct {
	chunk, prefetch int
	dir             string
	sched           schedFlags
	verbose         bool
	ckptDir         string
	ckptEvery       int
	resume          bool
}

// runOutOfCore executes the circuit on the file-backed engine: the plan is
// scheduled at l = chunk local qubits (chunk-index bits play the role of
// the global qubits) and runs stage by stage through the circuit-aware
// pipeline, reading -ooc-prefetch chunks ahead of compute. An error comes
// back to main instead of exiting here, so the deferred Close has removed the
// 16·2^n-byte state file by the time the process ends.
func runOutOfCore(circ *circuit.Circuit, tel *telemetry.Telemetry, o oocOptions) error {
	l := o.chunk
	if l == 0 {
		l = circ.N - 4
	}
	plan := o.sched.plan(circ, l)
	if o.verbose {
		fmt.Print(plan.Summary())
	}
	v, err := oocvec.NewUniform(plan.N, plan.L, o.dir)
	if err != nil {
		return err
	}
	defer v.Close()
	v.SetPrefetch(o.prefetch)
	v.SetTelemetry(tel)

	start := time.Now()
	restored, written := -1, 0
	if o.ckptDir != "" {
		pol := &ckpt.Policy{Dir: o.ckptDir, EveryStages: o.ckptEvery}
		restored, written, err = v.RunCheckpointed(plan, pol, o.resume)
	} else {
		err = v.Run(plan)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	norm, ent, err := v.NormEntropy()
	if err != nil {
		return err
	}

	fmt.Printf("circuit: %d qubits, %d gates\n", circ.N, len(circ.Gates))
	fmt.Printf("ooc:     2^%d chunks of 2^%d amplitudes (%.1f MB each), prefetch %d\n",
		plan.N-plan.L, plan.L, float64(uint64(16)<<plan.L)/1e6, v.Prefetch())
	fmt.Printf("plan:    %d stages, %d swaps, %d clusters (%.1f gates/cluster), %d diag ops\n",
		plan.Stats.Stages, plan.Stats.Swaps, plan.Stats.Clusters,
		plan.Stats.GatesPerCluster, plan.Stats.DiagonalOps)
	fmt.Printf("result:  norm=%.12f entropy=%.6f nats\n", norm, ent)
	fmt.Printf("time:    %.3fs total\n", elapsed.Seconds())
	if reg := tel.Registry(); reg != nil {
		hits := reg.Counter("oocvec.prefetch_hits").Value()
		misses := reg.Counter("oocvec.prefetch_misses").Value()
		if hits+misses > 0 {
			fmt.Printf("io:      %d chunks read, %d written, prefetch hits %d/%d (%.1f%%)\n",
				reg.Counter("oocvec.chunks_read").Value(),
				reg.Counter("oocvec.chunks_written").Value(),
				hits, hits+misses, 100*float64(hits)/float64(hits+misses))
		}
	}
	if o.ckptDir != "" {
		resumedFrom := "fresh start"
		if restored >= 0 {
			resumedFrom = fmt.Sprintf("resumed at stage %d", restored)
		}
		fmt.Printf("ckpt:    %d snapshots committed, %s\n", written, resumedFrom)
	}
	if o.verbose {
		reportPages(tel, 16<<plan.L)
	}
	return nil
}

// runF32 executes the circuit on the single-precision in-memory state — the
// paper's Sec. 5 outlook (half the bytes per amplitude, one more qubit in
// the same memory) — through the fused single-node schedule, then draws
// shots samples with the stream dist.Run draws them with on one rank.
func runF32(circ *circuit.Circuit, sched schedFlags, tel *telemetry.Telemetry, verbose bool, shots int, seed int64) {
	plan := sched.plan(circ, circ.N)
	if verbose {
		fmt.Print(plan.Summary())
	}
	v := f32vec.NewUniform(circ.N)
	start := time.Now()
	if err := v.RunPlan(plan); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("circuit: %d qubits, %d gates\n", circ.N, len(circ.Gates))
	fmt.Printf("f32:     2^%d complex64 amplitudes, %.1f MB (%.1f MB in double precision)\n",
		circ.N, float64(uint64(f32vec.BytesPerAmplitude)<<circ.N)/1e6, float64(uint64(16)<<circ.N)/1e6)
	fmt.Printf("plan:    %d stages, %d swaps, %d clusters (%.1f gates/cluster), %d diag ops\n",
		plan.Stats.Stages, plan.Stats.Swaps, plan.Stats.Clusters,
		plan.Stats.GatesPerCluster, plan.Stats.DiagonalOps)
	norm, ent := v.NormEntropy()
	fmt.Printf("result:  norm=%.7f entropy=%.6f nats\n", norm, ent)
	fmt.Printf("time:    %.3fs total\n", elapsed.Seconds())
	kernels.ObservePages(tel, v.Amps)
	if verbose {
		reportPages(tel, int64(len(v.Amps))*f32vec.BytesPerAmplitude)
	}
	if shots > 0 {
		samples := v.Sample(rand.New(rand.NewSource(seed*31+1)), shots)
		for i, b := range samples {
			samples[i] = plan.LogicalIndex(b)
		}
		printSamples(circ.N, samples)
	}
}

func buildCircuit(kind string, qubits, depth int, seed int64, file string) (*circuit.Circuit, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return circuit.ReadText(f)
	}
	switch kind {
	case "supremacy":
		r, c := circuit.GridForQubits(qubits)
		return circuit.Supremacy(circuit.SupremacyOptions{
			Rows: r, Cols: c, Depth: depth, Seed: seed, SkipInitialH: true, OmitFinalCZs: true,
		}), nil
	case "qft":
		return circuit.QFT(qubits), nil
	case "ghz":
		return circuit.GHZ(qubits), nil
	case "bv":
		return circuit.BernsteinVazirani(qubits, int(seed)%(1<<qubits)), nil
	case "random":
		return circuit.RandomCircuit(qubits, 12*qubits, seed), nil
	}
	return nil, fmt.Errorf("unknown circuit family %q (want supremacy, qft, ghz, bv or random)", kind)
}

func report(c *circuit.Circuit, res *dist.Result, plan *schedule.Plan) {
	fmt.Printf("circuit: %d qubits, %d gates\n", c.N, len(c.Gates))
	fmt.Printf("ranks:   %d (2^%d amplitudes each)\n", res.Ranks, res.LocalQubits)
	fmt.Printf("plan:    %d stages, %d swaps, %d clusters (%.1f gates/cluster), %d diag ops\n",
		plan.Stats.Stages, plan.Stats.Swaps, plan.Stats.Clusters,
		plan.Stats.GatesPerCluster, plan.Stats.DiagonalOps)
	fmt.Printf("result:  norm=%.12f entropy=%.6f nats\n", res.Norm, res.Entropy)
	fmt.Printf("time:    %.3fs total, %.3fs comm (%.1f%%)\n",
		res.Elapsed.Seconds(), res.CommElapsed.Seconds(),
		100*res.CommElapsed.Seconds()/res.Elapsed.Seconds())
	fmt.Printf("comm:    %d steps, %.1f MB\n", res.CommSteps, float64(res.CommBytes)/1e6)
}

// reportPages prints the mem.* gauges the back end left: the bytes of state
// in memory and how many of them sat on 2 MiB pages, with the reason when
// none did. bufBytes is the size of one of the buffers the state is held in
// (a rank's shard, a chunk), which is what the allocator decides by.
func reportPages(tel *telemetry.Telemetry, bufBytes int64) {
	state, huge := tel.Gauge("mem.state_bytes").Value(), tel.Gauge("mem.huge_bytes").Value()
	if huge == 0 {
		fmt.Printf("memory:  %.1f MB of state, none on 2 MiB pages: %s\n", float64(state)/1e6, kernels.WhyNoHugePages(bufBytes))
		return
	}
	fmt.Printf("memory:  %.1f MB of state, %.1f MB (%.1f%%) on 2 MiB pages\n",
		float64(state)/1e6, float64(huge)/1e6, 100*float64(huge)/float64(state))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qsim: %v\n", err)
	os.Exit(1)
}
