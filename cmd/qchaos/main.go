// Command qchaos is the chaos soak driver: seeded random circuits run
// through the distributed and out-of-core engines while a composed fault
// schedule (chaos.Compose) degrades the run — rank crashes, payload
// corruption, stalls, ENOSPC, torn writes, transient read errors, slow
// I/O — and every result is compared bitwise against the same circuit run
// clean. Graceful degradation is the contract under test: a fault may cost
// the engines' restarts and pruned or skipped checkpoints, but never a
// wrong amplitude and never an abort.
//
// Schedules are op-indexed and seeded, so a failing run replays exactly
// from its seed; on mismatch the divergence is delta-debugged down to a
// minimal reproducer circuit and written to -repro.
//
// Examples:
//
//	qchaos -seed 1 -runs 25        # the CI smoke configuration
//	qchaos -runs 120 -v            # longer soak with per-run schedules
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"time"

	"qusim/internal/chaos"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/verify"
)

// coverage counts injected faults per class, summed over both chaos legs.
type coverage [chaos.NumClasses]int64

func (c *coverage) String() string {
	out := make([]string, len(c))
	for i, n := range c {
		out[i] = fmt.Sprintf("%s=%d", chaos.Class(i), n)
	}
	return strings.Join(out, " ")
}

// harvestSchedule folds a schedule's fired transport faults and an
// injecting FS's disk-fault stats into cov.
func harvestSchedule(cov *coverage, s *chaos.Schedule, fss ...*chaos.FS) {
	if mp := s.MPI; mp != nil {
		if mp.Crash != nil && mp.Crash.Fired() {
			cov[chaos.Crash]++
		}
		if mp.Corrupt != nil && mp.Corrupt.Fired() {
			cov[chaos.Corrupt]++
		}
		if mp.Stall != nil && mp.Stall.Fired() {
			cov[chaos.Stall]++
		}
	}
	for _, fs := range fss {
		st := fs.Stats()
		cov[chaos.NoSpace] += st.NoSpace
		cov[chaos.TornWrite] += st.TornWrites
		cov[chaos.ReadError] += st.ReadErrors
		cov[chaos.SlowIO] += st.Slowdowns
	}
}

// legCounts sums a leg's dist.Result restarts per class and snapshot counts.
type legCounts [6]int

func (c *legCounts) add(res *dist.Result) {
	for i, n := range []int{res.RestartsCorrupt, res.RestartsRankDead, res.RestartsStalled, res.RestartsIO, res.CheckpointsWritten, res.CheckpointsSkipped} {
		c[i] += n
	}
}

func (c *legCounts) String() string {
	return fmt.Sprintf("restarts corrupt=%d rank-dead=%d stalled=%d io=%d, ckpts written=%d skipped=%d", c[0], c[1], c[2], c[3], c[4], c[5])
}

// chaosDist is the distributed chaos leg: dist.Run with the schedule's
// transport faults armed, checkpointed recovery on, and the disk faults
// injected under the checkpoint layer. Each Run call composes a fresh
// schedule from (seed, run) — fire-once fault state included — so the
// delta-debugging minimizer replays the identical degradation on every
// candidate circuit. The leg is enrolled as a verify.PlanRow, so scheduling
// and the un-permutation are the harness's, not repeated here.
type chaosDist struct {
	seed   int64
	copts  chaos.ComposeOptions // copts.Ranks is the leg's rank count
	run    int                  // set by the driver before each soak iteration
	cov    *coverage            // shared by both legs
	counts legCounts
}

func (b *chaosDist) row() verify.Backend {
	ranks := b.copts.Ranks
	return verify.PlanRow(fmt.Sprintf("dist/ranks%d+chaos", ranks), bits.TrailingZeros(uint(ranks)), b.exec)
}

func (b *chaosDist) exec(plan *schedule.Plan) ([]complex128, error) {
	sched := chaos.Compose(b.seed, b.run, b.copts)
	cfs := chaos.NewFS(sched.Disk, nil)

	dir, err := os.MkdirTemp("", "qchaos-dist-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res, err := dist.Run(plan, dist.Options{
		Ranks:        b.copts.Ranks,
		GatherState:  true,
		Faults:       sched.MPI,
		Checkpoint:   &ckpt.Policy{Dir: dir, EveryStages: 1, FS: cfs},
		CommDeadline: 400 * time.Millisecond,
	})
	harvestSchedule(b.cov, sched, cfs)
	b.counts.add(res)
	if err != nil {
		return nil, fmt.Errorf("chaos dist leg under %s: %w", sched, err)
	}
	return res.Amplitudes, nil
}

// chaosOoc is the out-of-core chaos leg: dist.Run on the one rank of a
// paged vector, with the disk faults injected under both the backing-file
// data path and the checkpoint layer — a fault window that outlasts the
// engine's in-place retries restarts the run from the newest valid
// snapshot. At prefetch 0 read, compute and write take turns, so a fault
// index names the same state-file op in every run of a seed.
//
// Torn writes are scoped to the checkpoint layer only: shard CRCs detect a
// lying write there, while the backing file is transient working state
// with no redundancy to catch one (a crash restarts from a snapshot, never
// from the backing file).
type chaosOoc struct {
	seed    int64
	globals int
	copts   chaos.ComposeOptions
	run     int
	cov     *coverage
	counts  legCounts
}

func (b *chaosOoc) row() verify.Backend {
	return verify.PlanRow(fmt.Sprintf("oocvec/g%d+chaos", b.globals), b.globals, b.exec)
}

func (b *chaosOoc) exec(plan *schedule.Plan) ([]complex128, error) {
	sched := chaos.Compose(b.seed, b.run, b.copts)
	dataDisk := sched.Disk
	dataDisk.TornWriteAt = 0
	// The state file's full-disk window opens past Create's one write op,
	// the temp file (Create writes no chunk): a disk full before the state
	// exists fails Create, which leaves no run to recover.
	if dataDisk.NoSpaceAt > 0 {
		dataDisk.NoSpaceAt++
	}
	dfs := chaos.NewFS(dataDisk, nil)
	cfs := chaos.NewFS(sched.Disk, nil)
	defer harvestSchedule(b.cov, sched, dfs, cfs)

	dir, err := os.MkdirTemp("", "qchaos-ooc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	v, err := oocvec.Create(dfs, plan.N, plan.L, "", statevec.StartZero)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	res, err := dist.Run(plan, dist.Options{Ranks: 1, Store: v, GatherState: true,
		Checkpoint: &ckpt.Policy{Dir: dir, EveryStages: 1, FS: cfs}})
	b.counts.add(res)
	if err != nil {
		return nil, fmt.Errorf("chaos ooc leg under %s: %w", sched, err)
	}
	return res.Amplitudes, nil
}

// writeRepro drops a reproducer file into dir (no-op when dir is empty)
// and says on stderr where.
func writeRepro(dir, name, content string) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		//qlint:ignore atomicrename a reproducer report for a human, not durability data — a torn repro file cannot corrupt any run
		err = os.WriteFile(path, []byte(content), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qchaos: writing reproducer:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "qchaos: reproducer at", path)
}

func main() {
	var (
		seed   = flag.Int64("seed", 1, "master seed (circuits and fault schedules derive from it)")
		runs   = flag.Int("runs", 25, "soak iterations; run r arms primary fault class r mod 6")
		qubits = flag.Int("qubits", 6, "qubits per generated circuit")
		gates  = flag.Int("gates", 30, "gates per generated circuit")
		ranks  = flag.Int("ranks", 4, "simulated MPI ranks for the distributed leg")
		budget = flag.Duration("budget", 0, "wall-clock budget; exceeding it fails the soak (0 = none)")
		repro  = flag.String("repro", "", "directory for reproducer files on failure")
		vflag  = flag.Bool("v", false, "per-run schedules and engine summaries")
	)
	flag.Parse()
	start := time.Now()

	copts := chaos.ComposeOptions{Ranks: *ranks}
	cleanDist := verify.Distributed(*ranks)
	cleanOoc := verify.OutOfCore(2, 2)
	var cov coverage
	chDist := &chaosDist{seed: *seed, copts: copts, cov: &cov}
	chOoc := &chaosOoc{seed: *seed, globals: 2, copts: copts, cov: &cov}

	// Bitwise engines: the chaos leg must reproduce its clean twin exactly
	// (tol 0). The anchor engine pins the clean twins themselves against
	// the dense naive reference at numerical tolerance, so a systematic
	// error in a twin cannot silently validate the chaos leg.
	distEng := verify.NewEngine(cleanDist, []verify.Backend{chDist.row()}, 0)
	oocEng := verify.NewEngine(cleanOoc, []verify.Backend{chOoc.row()}, 0)
	anchorEng := verify.NewEngine(verify.Naive(), []verify.Backend{cleanDist, cleanOoc}, 1e-10)

	engines := []*verify.Engine{distEng, oocEng, anchorEng}

	var failures []string
	r := 0 // past the loop: the runs completed
	for ; r < *runs; r++ {
		if *budget > 0 && time.Since(start) > *budget {
			failures = append(failures, fmt.Sprintf("run %d: budget %v exhausted after %d/%d runs", r, *budget, r, *runs))
			break
		}
		c := verify.Random(verify.RandomOptions{
			Seed: *seed*101 + int64(r), Qubits: *qubits, Gates: *gates,
		})
		chDist.run, chOoc.run = r, r
		if *vflag {
			fmt.Printf("run %2d: %s  %s\n", r, c.Name, chaos.Compose(*seed, r, copts))
		}
		for _, eng := range engines {
			if err := eng.Check(c); err != nil {
				failures = append(failures, fmt.Sprintf("run %d: %v", r, err))
				writeRepro(*repro, fmt.Sprintf("run%03d-harness.txt", r),
					fmt.Sprintf("# %v\n# %s\n%s", err, chaos.Compose(*seed, r, copts), verify.CircuitText(c)))
			}
		}
	}

	fmt.Printf("qchaos: %d/%d runs, seed %d, %v elapsed\n", r, *runs, *seed, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  injected: %s\n", cov.String())
	fmt.Printf("  dist: %s\n  ooc:  %s\n", &chDist.counts, &chOoc.counts)
	if *vflag {
		fmt.Print(distEng.Summary(), oocEng.Summary(), anchorEng.Summary())
	}

	ok := true
	for _, eng := range engines {
		for i, d := range eng.Divergences {
			ok = false
			fmt.Printf("MISMATCH %s on %s: maxΔ=%.3e (%d-gate reproducer)\n",
				d.Backend, d.Circuit, d.MaxDelta, d.ReproducerGates)
			writeRepro(*repro, fmt.Sprintf("divergence%03d-%s.txt", i, d.Backend),
				fmt.Sprintf("# %s diverged on %s, maxΔ=%.3e\n%s", d.Backend, d.Circuit, d.MaxDelta, d.Reproducer))
		}
	}
	for _, f := range failures {
		ok = false
		fmt.Println("FAILURE", f)
	}
	// Coverage gate: a soak that never injected a class proves nothing
	// about it. SlowIO is a rider (latency, not failure) and exempt.
	for _, cl := range []chaos.Class{chaos.Crash, chaos.Corrupt, chaos.Stall, chaos.NoSpace, chaos.TornWrite, chaos.ReadError} {
		if cov[cl] == 0 {
			ok = false
			fmt.Printf("COVERAGE: fault class %s was never injected\n", cl)
		}
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Println("PASS: all chaos runs bitwise identical to clean runs")
}
