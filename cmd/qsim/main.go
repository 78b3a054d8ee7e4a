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
//	qsim -qubits 24 -ooc -sample 1000 -profile           # a paged run samples and profiles like a rank
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/kernels"
	"qusim/internal/oocvec"
	"qusim/internal/par"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

func main() {
	var (
		kind      = flag.String("circuit", "supremacy", "circuit family: supremacy (run from the uniform state, its Hadamard cycle left out), qft, ghz, bv, random (run from |0…0⟩, as is -file)")
		qubits    = flag.Int("qubits", 20, "number of qubits")
		depth     = flag.Int("depth", 25, "supremacy circuit depth (clock cycles after the Hadamard layer)")
		seed      = flag.Int64("seed", 0, "random seed")
		ranks     = flag.Int("ranks", 1, "simulated MPI ranks (power of two)")
		kmax      = flag.Int("kmax", schedule.DefaultOptions(0).KMax, "cap on the fused-gate size (clamped to local qubits); below it the scheduler's kernel cost table decides how far to fuse")
		f32       = flag.Bool("f32", false, "single-precision (complex64) amplitudes on every rank — half the memory per amplitude and half the bytes per exchange")
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
		oocChunk    = flag.Int("ooc-chunk", 0, "out-of-core chunk qubits l (2^l amplitudes in memory; default qubits-4, at least 1)")
		oocPrefetch = flag.Int("ooc-prefetch", 0, "chunks read ahead of compute, each stage being one fused pass over the file (0 = no read-ahead: read, compute and write take turns)")
		oocDir      = flag.String("ooc-dir", "", "directory for the out-of-core state file (default: system temp)")
	)
	flag.Parse()
	if err := checkCounts(bound{"-qubits", *qubits, 1}, bound{"-depth", *depth, 0}, bound{"-sample", *shots, 0},
		bound{"-checkpoint-every", *ckptEvery, 1}, bound{"-ooc-chunk", *oocChunk, 0},
		bound{"-ooc-prefetch", *oocPrefetch, 0}, bound{"-workers", *workers, 0}); err != nil {
		usage(err)
	}
	if *qubits > 62 { // past what a plan addresses, and what a generator's 1<<qubits survives
		usage(fmt.Errorf("-qubits must be from 1 to 62, got %d", *qubits))
	}
	given := map[string]bool{
		"-f32": *f32, "-ooc": *ooc, "-baseline": *baseline,
		"-sample": *shots > 0, "-profile": *profile, "-checkpoint-dir": *ckptDir != "", "-resume": *resume,
		"-tune": *tune, "-tune-cache": *tuneCache != "", "-plan": *planFile != "", "-spec1q": *spec1q,
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "kmax", "checkpoint-every", "comm-deadline", "ooc-chunk", "ooc-prefetch", "ooc-dir":
			given["-"+f.Name] = true
		}
	})
	if err := checkFlags(*ranks, given); err != nil {
		usage(err)
	}
	if *workers > 0 {
		par.SetWorkers(*workers)
	}

	// -trace / -metrics arm the telemetry layer across every subsystem; the
	// pool's hook is process-global, a run's rides in dist.Options or on the
	// paged vector, and its checkpoint writer inherits it. -v reads the mem.*
	// gauges from it.
	tel := telemetry.Disabled
	if *traceFile != "" || *metrics || *verbose {
		tel = telemetry.New()
		par.SetTelemetry(tel)
	}

	circ, start, err := buildCircuit(*kind, *qubits, *depth, *seed, *file)
	if err != nil {
		fatal(err)
	}
	// The plan's local qubits; a saved plan brings its own.
	l := circ.N
	if *planFile == "" {
		if l, err = localQubits(circ.N, *ranks, *ooc, *oocChunk); err != nil {
			usage(err)
		}
	}
	sched := schedFlags{kmax: *kmax, spec1q: *spec1q, planFile: *planFile, perGate: *baseline}
	if *tune {
		// A pass over more than the last-level cache, which is what the
		// compiled-in table prices: the run's own state, up to 256 MiB.
		n := min(circ.N, 24)
		var res kernels.TuneResult
		if *tuneCache != "" {
			cached, hit, terr := kernels.TuneCached(*tuneCache, n)
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
	}

	plan := sched.plan(circ, l)
	if *verbose {
		fmt.Print(plan.Summary())
	}

	var pol *ckpt.Policy
	if *ckptDir != "" {
		pol = &ckpt.Policy{Dir: *ckptDir, EveryStages: *ckptEvery}
	}
	opts := dist.Options{
		Ranks: *ranks, Init: start,
		SampleShots: *shots, SampleSeed: *seed, Profile: *profile,
		Checkpoint: pol, Resume: *resume, CommDeadline: *commDL,
		Telemetry: tel,
	}
	var paged *oocvec.Vector
	if *ooc {
		// One rank holds the state in a file, in chunks of 2^plan.L
		// amplitudes, -ooc-prefetch of them read ahead of compute.
		if paged, err = oocvec.Create(nil, plan.N, plan.L, *oocDir, start); err != nil {
			fatal(err)
		}
		paged.SetPrefetch(*oocPrefetch)
		paged.SetTelemetry(tel)
		opts.Store = paged
	}
	run := dist.Run
	if *f32 {
		run = dist.RunAt[complex64]
	}
	res, err := run(plan, opts)
	if paged != nil {
		paged.Close() // before fatal exits: the 16·2^n-byte state file goes either way
	}
	if err != nil {
		fatal(err)
	}
	if *baseline {
		// The paper's unit, as dist.RunBaseline counts: one step per
		// communicating gate, not the two exchanges of a dense global gate.
		res.CommSteps = plan.Stats.BaselineGlobalGates
	}
	report(plan, opts, res, *f32, *verbose)
	flushTelemetry(tel, *traceFile, *metrics)
}

// report prints qsim's result block, the same for every store — ranks, in
// single precision with f32, or a paged file: the two Sec. 5 outlooks.
func report(plan *schedule.Plan, opts dist.Options, res *dist.Result, f32, verbose bool) {
	store, digits, bufBytes := fmt.Sprintf("ranks:   %d (2^%d amplitudes each)", res.Ranks, res.LocalQubits), 12, int64(16)<<res.LocalQubits
	comm := fmt.Sprintf(", %.3fs comm (%.1f%%)", res.CommElapsed.Seconds(), 100*res.CommElapsed.Seconds()/res.Elapsed.Seconds())
	notes := []string{fmt.Sprintf("comm:    %d steps, %.1f MB", res.CommSteps, float64(res.CommBytes)/1e6)}
	switch v, ok := opts.Store.(*oocvec.Vector); {
	case ok:
		// A paged rank communicates nothing: its swaps renumber the file.
		store = fmt.Sprintf("ooc:     2^%d chunks of 2^%d amplitudes (%.1f MB each), prefetch %d",
			plan.N-plan.L, plan.L, float64(uint64(16)<<plan.L)/1e6, v.Prefetch())
		comm, notes, bufBytes = "", nil, 16<<plan.L
		c := opts.Telemetry.Registry().Counter
		if hits, misses := c("oocvec.prefetch_hits").Value(), c("oocvec.prefetch_misses").Value(); hits+misses > 0 {
			notes = []string{fmt.Sprintf("io:      %d chunks read, %d written, prefetch hits %d/%d (%.1f%%)",
				c("oocvec.chunks_read").Value(), c("oocvec.chunks_written").Value(), hits, hits+misses, 100*float64(hits)/float64(hits+misses))}
		}
	case f32:
		// The state's size in both precisions heads the block; a lone
		// rank has no communication to report.
		f32Store := fmt.Sprintf("f32:     2^%d complex64 amplitudes, %.1f MB (%.1f MB in double precision)",
			plan.N, float64(uint64(8)<<plan.N)/1e6, float64(uint64(16)<<plan.N)/1e6)
		store, digits, bufBytes = f32Store+"\n"+store, 7, bufBytes/2
		if res.Ranks == 1 {
			store, comm, notes = f32Store, "", nil
		}
	}
	if opts.Checkpoint != nil {
		notes = append(notes, fmt.Sprintf("ckpt:    %d snapshots committed, %d restored, %d restarts",
			res.CheckpointsWritten, res.CheckpointsRestored, res.Restarts))
	}
	if opts.Profile {
		notes = append(notes, "profile (slowest rank):")
		ops := 0
		for _, e := range res.Profile {
			if e.Ops == 0 {
				continue
			}
			notes = append(notes, fmt.Sprintf("  %-8s %4d ops  %8.3fs", e.Kind, e.Ops, e.Duration.Seconds()))
			ops += e.Ops
		}
		// Consecutive diagonals and low-position clusters share one pass,
		// applied block by block (DESIGN §12.2); an op inside such a run is
		// timed by its share of the run.
		notes = append(notes, fmt.Sprintf("  %d ops in %d passes over each rank's units, %d of them blocked runs",
			ops, res.ProfilePasses, res.ProfileRuns))
	}
	fmt.Printf("circuit: %d qubits, %d gates\n%s\n", plan.N, plan.Stats.Gates, store)
	fmt.Printf("plan:    %d stages, %d swaps, %d clusters (%.1f gates/cluster), %d diag ops\n",
		plan.Stats.Stages, plan.Stats.Swaps, plan.Stats.Clusters,
		plan.Stats.GatesPerCluster, plan.Stats.DiagonalOps)
	fmt.Printf("result:  norm=%.*f entropy=%.6f nats\n", digits, res.Norm, res.Entropy)
	fmt.Printf("time:    %.3fs total%s\n", res.Elapsed.Seconds(), comm)
	for _, line := range notes {
		fmt.Println(line)
	}
	if verbose {
		// The mem.* gauges: the state's bytes in memory, and on 2 MiB pages
		// or why none are, by the size of one buffer (a shard, a chunk).
		state, huge := opts.Telemetry.Gauge("mem.state_bytes").Value(), opts.Telemetry.Gauge("mem.huge_bytes").Value()
		if huge == 0 {
			fmt.Printf("memory:  %.1f MB of state, none on 2 MiB pages: %s\n", float64(state)/1e6, kernels.WhyNoHugePages(bufBytes))
		} else {
			fmt.Printf("memory:  %.1f MB of state, %.1f MB (%.1f%%) on 2 MiB pages\n",
				float64(state)/1e6, float64(huge)/1e6, 100*float64(huge)/float64(state))
		}
	}
	if len(res.Samples) > 0 {
		fmt.Printf("samples (%d shots, first 10):\n", len(res.Samples))
		for _, b := range res.Samples[:min(len(res.Samples), 10)] {
			fmt.Printf("  |%0*b⟩\n", plan.N, b)
		}
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

// bound is a count flag's value and the least value a run can have.
type bound struct {
	flag       string
	value, min int
}

// checkCounts rejects a count no run can have, which would otherwise panic
// in a generator, be clamped or be silently ignored.
func checkCounts(bounds ...bound) error {
	for _, b := range bounds {
		switch {
		case b.value >= b.min:
		case b.min == 0:
			return fmt.Errorf("%s must not be negative, got %d", b.flag, b.value)
		default:
			return fmt.Errorf("%s must be at least %d, got %d", b.flag, b.min, b.value)
		}
	}
	return nil
}

// localQubits returns the qubits each rank's shard holds, at least one, or
// each out-of-core chunk (default qubits−4, at least one), fewer than the
// circuit's: a paged state is more than one chunk. Neither holds more than
// statevec.MaxUnitQubits, in either precision.
func localQubits(n, ranks int, ooc bool, chunk int) (int, error) {
	const most = statevec.MaxUnitQubits
	if !ooc {
		g := bits.TrailingZeros(uint(ranks))
		switch l := n - g; {
		case l < 1:
			return 0, fmt.Errorf("-ranks %d leaves no local qubit of the circuit's %d", ranks, n)
		case l > most && n <= 62: // a wider circuit is no plan's, as schedule says
			return 0, fmt.Errorf("%d qubits on %d ranks put 2^%d amplitudes on each, past the 2^%d a rank holds: -ranks %d takes at most %d qubits",
				n, ranks, l, most, ranks, most+g)
		default:
			return l, nil
		}
	}
	if n < 2 {
		return 0, fmt.Errorf("-ooc needs at least 2 qubits, got %d: a paged state needs at least 2 chunks of at least 1 qubit", n)
	}
	if chunk == 0 {
		chunk = min(max(n-4, 1), most)
	}
	if top := min(n-1, most); chunk < 1 || chunk > top {
		return 0, fmt.Errorf("-ooc-chunk must be from 1 to %d for %d qubits, got %d", top, n, chunk)
	}
	return chunk, nil
}

// checkFlags rejects, before any state is allocated, the flag combinations a
// run would otherwise silently ignore: each mode flag heads the list of what
// its path does not honour, and a flag that only tunes another mode needs it.
func checkFlags(ranks int, given map[string]bool) error {
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return fmt.Errorf("ranks must be a power of two, got %d", ranks)
	}
	given["-ranks > 1"] = ranks > 1
	for _, mode := range [][]string{
		{"-f32", "-ooc"},
		{"-ooc", "-ranks > 1", "-comm-deadline"},
		{"-baseline", "-plan", "-tune", "-kmax"},
		{"-plan", "-kmax", "-spec1q", "-tune", "-ooc-chunk"},
	} {
		for _, other := range mode[1:] {
			if given[mode[0]] && given[other] {
				return fmt.Errorf("%s cannot be combined with %s", mode[0], other)
			}
		}
	}
	for _, need := range [][2]string{
		{"-resume", "-checkpoint-dir"},
		{"-checkpoint-every", "-checkpoint-dir"},
		{"-tune-cache", "-tune"},
		{"-ooc-chunk", "-ooc"},
		{"-ooc-prefetch", "-ooc"},
		{"-ooc-dir", "-ooc"},
	} {
		if given[need[0]] && !given[need[1]] {
			return fmt.Errorf("%s needs %s", need[0], need[1])
		}
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

// buildCircuit returns the circuit a run executes and the state it starts
// from: the uniform state for a supremacy circuit, whose generator leaves out
// the Hadamard cycle because the simulator writes its result directly
// (Sec. 3.6), and |0…0⟩ for every other family and a circuit file.
func buildCircuit(kind string, qubits, depth int, seed int64, file string) (*circuit.Circuit, statevec.Start, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		c, err := circuit.ReadText(f)
		return c, statevec.StartZero, err
	}
	switch kind {
	case "supremacy":
		r, c := circuit.GridForQubits(qubits)
		return circuit.Supremacy(circuit.SupremacyOptions{
			Rows: r, Cols: c, Depth: depth, Seed: seed, SkipInitialH: true, OmitFinalCZs: true,
		}), statevec.StartUniform, nil
	case "qft":
		return circuit.QFT(qubits), statevec.StartZero, nil
	case "ghz":
		return circuit.GHZ(qubits), statevec.StartZero, nil
	case "bv":
		return circuit.BernsteinVazirani(qubits, int(seed)%(1<<qubits)), statevec.StartZero, nil
	case "random":
		return circuit.RandomCircuit(qubits, 12*qubits, seed), statevec.StartZero, nil
	}
	return nil, 0, fmt.Errorf("unknown circuit family %q (want supremacy, qft, ghz, bv or random)", kind)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qsim: %v\n", err)
	os.Exit(1)
}

// usage exits 2 on a flag error, with the reason and the usage text.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "qsim: %v\n", err)
	flag.Usage()
	os.Exit(2)
}
