// Package dist executes scheduled plans across 2^g simulated MPI ranks —
// the multi-node layer of Sec. 3.4–3.5 of Häner & Steiger, SC'17. Each rank
// owns 2^l amplitudes; non-diagonal gates run through the local kernels,
// diagonal gates on global qubits run via specialization without
// communication, and global-to-local swaps run as in-place group exchanges:
// a rank holds its shard and two staged pieces of the exchange, never a
// second shard.
//
// RunAt is the package's one executor, at either precision: Run is its
// complex128 instance, and RunAt[complex64] holds half the bytes per
// amplitude in every shard and moves half of them in every exchange — the
// single-precision outlook of Sec. 5. A rank holds a Store: its shard in
// memory or, alone in its world, a paged file (Options.Store), the other
// outlook there. The per-gate baseline scheme of
// [19]/[5] that the Table 2 speedup comparison needs is a plan like any
// other (schedule.PerGate): its pairwise half-vector exchange for a dense
// gate on a global qubit is the one-qubit global-to-local swap, there and
// back. RunBaseline builds that plan and calls Run.
//
// With Options.Checkpoint set, Run becomes crash-tolerant: ranks snapshot
// their amplitude shards at stage boundaries (package ckpt's atomic
// commit protocol), collective payloads carry checksums, and any detected
// transport failure — dead rank, corrupted payload, stalled collective — or
// file error of the snapshot disk triggers a restart (ckpt.Policy.Restart,
// the loop the paged engine runs too) from the newest valid snapshot that
// re-executes only the remaining stages. Restored amplitudes are bit-exact,
// so a recovered run produces the same result as an uninterrupted one.
package dist

import (
	"errors"
	"fmt"
	"math/bits"
	"time"
	"unsafe"

	"qusim/internal/ckpt"
	"qusim/internal/fsio"
	"qusim/internal/kernels"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// InitState, InitZero and InitUniform are the names dist's callers know
// statevec's start states by.
type InitState = statevec.Start

const InitZero, InitUniform = statevec.StartZero, statevec.StartUniform

// Result aggregates a distributed run.
type Result struct {
	Ranks       int
	LocalQubits int
	Norm        float64
	Entropy     float64 // Shannon entropy of the output distribution, nats

	CommSteps int   // collective communication steps (summed over attempts)
	CommBytes int64 // payload bytes crossing rank boundaries (summed)

	// FaultEvents counts the perturbations injected when Options.Faults
	// was set (0 on clean runs), summed over attempts.
	FaultEvents int64

	// Restarts counts recovery attempts after detected failures (0 when
	// the first attempt succeeded). The per-class breakdown below
	// partitions it by what the failed attempt died of; a dead rank is
	// observed as its collectives stalling, so classification checks
	// corrupt, then rank-dead, then stalled, then the file errors
	// (fsio.IsTransient, fsio.IsNoSpace) a rank restoring its shard may meet.
	Restarts         int
	RestartsCorrupt  int
	RestartsRankDead int
	RestartsStalled  int
	RestartsIO       int
	// CheckpointsWritten counts snapshots committed across all attempts.
	CheckpointsWritten int
	// CheckpointsSkipped counts stage boundaries where the snapshot was
	// dropped because the disk stayed full after pruning — the run
	// degrades (a later restart replays more stages) instead of aborting.
	CheckpointsSkipped int
	// CheckpointsRestored counts attempts that started from a snapshot
	// instead of the initial state.
	CheckpointsRestored int

	Elapsed     time.Duration // wall time of the slowest rank
	CommElapsed time.Duration // wall time spent in communication (max rank)

	// Amplitudes holds the gathered full state when GatherState was set,
	// widened to complex128 from a single-precision run (index layout: rank
	// bits are the top g bits — location p ≥ l is rank bit p−l).
	Amplitudes []complex128

	// Samples holds SampleShots logical basis states drawn from the output
	// distribution (already translated back to qubit order).
	Samples []int

	// Profile holds the per-op-kind time breakdown when Options.Profile
	// was set, ordered by kind name.
	Profile []ProfileEntry
	// ProfilePasses and ProfileRuns say, with Options.Profile, how the ops
	// counted in Profile were executed on a rank: in how many passes over its
	// shard, and how many of those were blocked runs of several ops
	// (schedule.Shard.Exec). Every rank executes the same sequence.
	ProfilePasses, ProfileRuns int
}

// Options configures Run.
type Options struct {
	Ranks int // power of two ≥ 1
	// Init is the state the run starts in: each rank writes its shard of
	// it with statevec.Fill.
	Init InitState
	// Store, when not nil, is what the rank of a world of one holds: a
	// paged file of the plan's state in units of 2^plan.L amplitudes
	// (oocvec.Vector). Only Run takes one, and no CommDeadline with it: an
	// abandoned attempt's rank would share the file with the next attempt.
	Store Store[complex128]
	// GatherState collects the full 2^n state into Result.Amplitudes
	// (testing/verification only — defeats the point of distribution).
	GatherState bool
	// SampleShots draws that many basis states from the output
	// distribution without gathering the state: ranks share only their
	// total probability weights, then sample locally. Results land in
	// Result.Samples as logical basis states (qubit q = bit q).
	SampleShots int
	// SampleSeed seeds the distributed sampler.
	SampleSeed int64
	// Profile collects a per-op-kind execution profile into
	// Result.Profile — how the paper's "time spent in communication and
	// synchronization is 78%" breakdowns are measured.
	Profile bool
	// Faults arms deterministic fault injection in the simulated MPI layer
	// (delayed chunk posting, out-of-order delivery, barrier jitter, plus
	// the hard rank-crash and payload-corruption faults). A correct run
	// produces identical amplitudes with or without the timing faults;
	// package verify soaks this invariant. Hard faults fire at most once
	// per plan, so a checkpointed run recovers from them.
	Faults *mpi.FaultPlan

	// Checkpoint enables crash-consistent snapshots and stage-level
	// recovery: shards land in Checkpoint.Dir every EveryStages stage
	// boundaries, and a detected transport failure or file error restarts
	// the run from the newest valid snapshot, or from Init when none is, up
	// to ckpt.MaxRestarts times (ckpt.Policy.Restart). Setting it also
	// turns on collective payload checksums.
	Checkpoint *ckpt.Policy
	// Resume makes the FIRST attempt look for a restorable snapshot in
	// Checkpoint.Dir before initializing — continuing an earlier process's
	// interrupted run. Without it only the restarts restore.
	Resume bool
	// CommDeadline bounds each attempt's wall time; a rank hung outside
	// the communication layer surfaces as a recoverable stall instead of a
	// hang. Zero disables the bound.
	CommDeadline time.Duration

	// Telemetry, when enabled, records per-rank trace timelines (stage and
	// op spans with qubit-set and fused-cluster annotations, checkpoint and
	// restore lifecycles) and feeds the metrics registry; the simulated MPI
	// layer inherits it for collective spans and latency histograms. Leave
	// nil (or telemetry.Disabled) for zero-overhead runs. When Profile is
	// also set, Result.Profile is derived from the same clock readings that
	// time the spans, so trace and profile cannot disagree.
	Telemetry *telemetry.Telemetry
}

// ProfileEntry aggregates wall time for one op kind (on the slowest rank).
type ProfileEntry struct {
	Kind     string
	Ops      int
	Duration time.Duration
}

// classifyRestart partitions a recoverable failure by class — corrupt
// first (a corrupted payload is the root cause even when its collective
// also stalled), then rank-dead (which wraps ErrStalled by construction),
// then pure stalls, and what is left, a file error.
func classifyRestart(err error, res *Result, tel *telemetry.Telemetry) {
	n, class := &res.RestartsIO, "io"
	switch {
	case errors.Is(err, mpi.ErrCorrupt):
		n, class = &res.RestartsCorrupt, "corrupt"
	case errors.Is(err, mpi.ErrRankDead):
		n, class = &res.RestartsRankDead, "rank_dead"
	case errors.Is(err, mpi.ErrStalled):
		n, class = &res.RestartsStalled, "stalled"
	}
	*n++
	tel.Counter("dist.restart_" + class).Inc()
}

// Run executes a plan produced by schedule.Build in double precision.
// plan.L must equal n − log2(Ranks), unless there is one rank: it holds the
// whole state, and a swap exchanges its locations in place.
func Run(plan *schedule.Plan, opts Options) (*Result, error) { return RunAt[complex128](plan, opts) }

// RunAt is Run with amplitudes of type T. On a failure the Result, when
// there is one, holds the counters of the attempts made and nothing else.
func RunAt[T statevec.Amp](plan *schedule.Plan, opts Options) (*Result, error) {
	ranks := opts.Ranks
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return nil, fmt.Errorf("dist: rank count %d is not a power of two", ranks)
	}
	g := bits.TrailingZeros(uint(ranks))
	if g > 0 && plan.N-plan.L != g {
		return nil, fmt.Errorf("dist: plan has %d global qubits, world provides %d", plan.N-plan.L, g)
	}
	l := plan.N - g
	var paged Store[T]
	if opts.Store != nil {
		var ok bool
		if paged, ok = any(opts.Store).(Store[T]); !ok || ranks > 1 || opts.CommDeadline > 0 {
			return nil, fmt.Errorf("dist: a paged store is the one rank of a complex128 run without a comm deadline")
		}
	} else if l > statevec.MaxUnitQubits {
		return nil, fmt.Errorf("dist: %d qubits on %d ranks put 2^%d amplitudes on each, more than the 2^%d a shard holds",
			plan.N, ranks, l, statevec.MaxUnitQubits)
	}

	res := &Result{Ranks: ranks, LocalQubits: l}
	var meta ckpt.Meta
	if ck := opts.Checkpoint; ck != nil {
		if ck.Dir == "" {
			return nil, fmt.Errorf("dist: checkpoint policy has no directory")
		}
		meta = ckpt.Meta{PlanHash: plan.Fingerprint(), N: plan.N, L: l, Ranks: ranks, AmpBytes: int(unsafe.Sizeof(T(0)))}
		if err := ckpt.NewWriter(ck, meta, nil).MkdirAll(); err != nil {
			return nil, fmt.Errorf("dist: checkpoint dir: %w", err)
		}
	}

	var failedAt time.Time // when the previous attempt's failure surfaced
	// Each attempt has its own writer: a rank of an abandoned attempt that
	// wakes late tees into its attempt's snapshots, never into the next one's.
	restarts, err := opts.Checkpoint.Restart(meta, opts.Telemetry, opts.Resume, func(ckw *ckpt.Writer, man *ckpt.Manifest, failed error) error {
		if failed != nil {
			classifyRestart(failed, res, opts.Telemetry)
			// Failure detection → restored attempt start: the latency a
			// fault-tolerance budget actually pays per recovery.
			opts.Telemetry.Histogram("dist.recovery_latency_ns").ObserveSince(failedAt)
		}
		opts.Telemetry.Counter("dist.attempts").Inc()
		err := runAttempt(plan, opts, l, paged, ckw, man, failed != nil, res)
		failedAt = time.Now()
		return err
	}, mpi.Recoverable, fsio.IsTransient, fsio.IsNoSpace)
	res.Restarts = restarts
	return res, err
}

// runAttempt executes the plan once — from man, the snapshot ckw restores,
// when there is one, on the paged store when there is one — and folds the
// attempt's results and counters into res on success (counters are folded
// on failure too; result fields only on success).
func runAttempt[T statevec.Amp](plan *schedule.Plan, opts Options, l int, paged Store[T], ckw *ckpt.Writer, man *ckpt.Manifest, failed bool, res *Result) error {
	ranks, unit := opts.Ranks, l
	if paged != nil {
		unit = plan.L
	}
	startStage := 0
	if man != nil {
		startStage = man.NextStage
		res.CheckpointsRestored++
	}

	w := mpi.NewWorld(ranks)
	w.InjectFaults(opts.Faults)
	w.SetTelemetry(opts.Telemetry)
	w.SetVerifyChecksums(opts.Checkpoint != nil)
	w.SetDeadline(opts.CommDeadline) // none unless positive
	// The attempt's results are its own: an attempt abandoned on deadline may
	// have ranks hung in compute that wake later, and they must not share
	// memory with the next attempt.
	rs := make([]*rank[T], ranks)
	var amplitudes []complex128
	if opts.GatherState {
		amplitudes = kernels.NewAmps[complex128](1 << plan.N)
	}
	samples := make([]int, opts.SampleShots)
	// Compiled once for all ranks and units: a stage's diagonal tables exist
	// once, not once per rank.
	stages, err := (&schedule.Shard[T]{L: unit}).Stages(plan, startStage)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		// Engine timeline: pid = rank, tid 0 (the comm layer records on
		// tid 1 of the same pid). Restart attempts merge onto one timeline.
		sc := opts.Telemetry.Scope(c.Rank(), 0, fmt.Sprintf("rank %d", c.Rank()), "engine")
		attemptT0 := sc.Now()

		// The rank's store: by default a fresh shard, for good —
		// permutations and exchanges run in place. A failed attempt — a
		// corrupted piece, a dead rank — leaves shards half permuted or half
		// exchanged; nothing reads them again.
		r := &rank[T]{store: paged, c: c, sc: sc, plan: plan}
		if paged == nil {
			r.store, r.sh = r, schedule.Shard[T]{Amps: kernels.NewAmps[T](1 << l), L: l, Index: c.Rank()}
		}
		t0 := sc.Now()
		if err := r.store.Load(ckw, man, opts.Init, failed); err != nil {
			return fmt.Errorf("dist: loading rank %d: %w", c.Rank(), err)
		}
		if man != nil {
			sc.Complete("ckpt", "restore", t0, time.Since(t0), telemetry.A("stage", man.NextStage), telemetry.A("amps", 1<<l))
		}
		var hook func([]schedule.Op, time.Time, []time.Duration)
		if opts.Profile || sc != nil {
			hook = r.observe
		}
		r.store.Observe(hook)
		start := time.Now()
		if err := schedule.Walk(plan, stages, startStage, ckw, r.store); err != nil {
			return err
		}

		// Final reductions (norm + entropy), as in the Edison entropy run:
		// pure local compute, the store's own (a paged store kept the pair
		// its last stage summed); only the collectives below count toward
		// CommElapsed.
		localNorm, ent, err := r.store.NormEntropy()
		if err != nil {
			return err
		}
		if amplitudes != nil {
			i := c.Rank() << l
			if err := r.store.Units(func(u []T) error {
				for j := range u {
					amplitudes[i+j] = complex128(u[j])
				}
				i += len(u)
				return nil
			}); err != nil {
				return err
			}
		}
		t0 = time.Now()
		norm := c.AllreduceSum(localNorm)
		ent = c.AllreduceSum(ent)
		r.commTime += time.Since(t0)
		sc.Complete("dist", "reduce", t0, time.Since(t0))
		if opts.SampleShots > 0 {
			st0 := sc.Now()
			if err := r.sample(localNorm, l, opts.SampleSeed, samples); err != nil {
				return err
			}
			sc.Complete("dist", "sample", st0, time.Since(st0), telemetry.A("shots", opts.SampleShots))
		}
		r.norm, r.entropy, r.elapsed = norm, ent, time.Since(start)
		sc.Complete("dist", "attempt", attemptT0, time.Since(attemptT0), telemetry.A("start_stage", startStage))
		rs[c.Rank()] = r
		return nil
	})

	// Counters accumulate across attempts, success or not. The traffic,
	// fault and snapshot counters are atomics, safe even if a deadline left
	// a rank behind.
	res.CommSteps += int(w.Traffic.Steps.Load())
	res.CommBytes += w.Traffic.Bytes.Load()
	res.FaultEvents += w.FaultEvents()
	written, skipped := ckw.Counts()
	res.CheckpointsWritten += written
	res.CheckpointsSkipped += skipped
	if err != nil {
		return err
	}
	var bufs [][]T
	var elapsed, comm time.Duration
	for _, r := range rs {
		bufs, elapsed, comm = append(bufs, r.store.Buffers()...), max(elapsed, r.elapsed), max(comm, r.commTime)
	}
	kernels.ObservePages(opts.Telemetry, bufs...)
	res.Norm, res.Entropy = rs[0].norm, rs[0].entropy
	res.Elapsed += elapsed
	res.CommElapsed += comm
	res.Amplitudes = amplitudes
	if opts.SampleShots > 0 {
		res.Samples = samples
	}
	if opts.Profile {
		// Ops and Duration must come from the same rank: report both from
		// the max-duration rank (≥ so zero-duration kinds still pick up a
		// consistent op count). Every rank makes the same passes.
		res.Profile = make([]ProfileEntry, 4)
		for k := range res.Profile {
			res.Profile[k].Kind = schedule.OpKind(k).String()
			for _, r := range rs {
				if r.profDur[k] >= res.Profile[k].Duration {
					res.Profile[k].Duration, res.Profile[k].Ops = r.profDur[k], r.profOps[k]
				}
			}
		}
		res.ProfilePasses, res.ProfileRuns = rs[0].passes, rs[0].runs
	}
	return nil
}

// Store is what a rank holds its part of the state in, and RunAt reaches it
// through these methods alone: by default the rank's shard in memory, for a
// world of one the paged file of Options.Store.
type Store[T statevec.Amp] interface {
	// The stage walk's (schedule.Walk): Stage tees the units, in
	// plan-location order, into the snapshot it is handed, and commits it.
	schedule.Executor[T]
	// Load puts in place the state an attempt starts from: the snapshot man
	// through ck, else init (which a paged file stands for, computed, from
	// its creation until an attempt fails).
	Load(ck *ckpt.Writer, man *ckpt.Manifest, init statevec.Start, failed bool) error
	// Units hands visit the units, in plan-location order.
	Units(visit func(unit []T) error) error
	// NormEntropy returns Σ|α|² and the entropy −Σ|α|²·ln|α|² of the
	// units, each summed with kernels.NormEntropy unit by unit in
	// plan-location order.
	NormEntropy() (norm, entropy float64, err error)
	// Observe arms hook (nil: disarms it) on each pass over a unit.
	Observe(hook func(ops []schedule.Op, start time.Time, took []time.Duration))
	// Buffers returns the memory the store holds amplitudes in.
	Buffers() [][]T
}

// rank is one rank of an attempt: its store — by default itself, its shard
// in memory — and where its time went.
type rank[T statevec.Amp] struct {
	store    Store[T]
	c        *mpi.Comm
	sh       schedule.Shard[T]
	sc       *telemetry.Scope
	plan     *schedule.Plan
	commTime time.Duration
	// The attempt's results, once the walk is done.
	norm, entropy float64
	elapsed       time.Duration
	profDur       [4]time.Duration
	profOps       [4]int
	passes, runs  int
}

// observe is told about every pass over a unit. One clock pair per pass
// feeds everything downstream — the comm accounting, the profile breakdown
// and the trace span — so the three views of "where did the time go" cannot
// disagree. An op is a pass of its own or, inside a blocked run, one of
// several sharing a pass and a "run" span; the profile counts it either way.
func (r *rank[T]) observe(ops []schedule.Op, t0 time.Time, took []time.Duration) {
	var d time.Duration
	for i := range ops {
		d += took[i]
		r.profDur[ops[i].Kind] += took[i]
		r.profOps[ops[i].Kind]++
	}
	r.passes++
	if len(ops) > 1 {
		r.runs++
	}
	switch {
	case r.sc == nil:
	case len(ops) == 1:
		r.sc.Complete("stage", ops[0].Kind.String(), t0, d, schedule.OpTraceArgs(&ops[0])...)
	default:
		r.sc.Complete("stage", "run", t0, d, telemetry.A("stage", ops[0].Stage), telemetry.A("ops", len(ops)))
	}
}

func (r *rank[T]) Load(ck *ckpt.Writer, man *ckpt.Manifest, init statevec.Start, _ bool) error {
	if man != nil {
		return ck.StreamShard(man, r.c.Rank(), kernels.AmpBytes(r.sh.Amps), nil)
	}
	statevec.Fill(init, r.plan.N, r.sh.Amps, r.c.Rank())
	return nil
}

func (r *rank[T]) Units(visit func(unit []T) error) error                       { return visit(r.sh.Amps) }
func (r *rank[T]) Buffers() [][]T                                               { return [][]T{r.sh.Amps} }
func (r *rank[T]) Observe(hook func([]schedule.Op, time.Time, []time.Duration)) { r.sh.Observe = hook }

func (r *rank[T]) NormEntropy() (norm, entropy float64, err error) {
	norm, entropy = kernels.NormEntropy(r.sh.Amps)
	return norm, entropy, nil
}

// Stage snapshots the shard when the boundary is due one, then runs the
// stage's program on it.
func (r *rank[T]) Stage(st *schedule.Stage[T], snap *ckpt.Snapshot) error {
	if snap != nil {
		if err := r.snapshot(snap, st.Stage); err != nil {
			return err
		}
	}
	r.sh.Exec(st.Prog)
	return nil
}

// Exchange is the global-to-local swap: local locations [l−q, l) against
// the rank bits GlobalBits, one group exchange per 2^(g−q) rank group
// (Sec. 3.4, Fig. 3), in place. A lone rank holds every location and swaps
// them within its shard.
func (r *rank[T]) Exchange(st *schedule.Stage[T]) {
	t0 := time.Now()
	if r.c.Size() == 1 {
		r.sh.SwapWhole(st, r.plan.L)
	} else {
		amps := kernels.AmpBytes(r.sh.Amps)
		r.c.GroupExchange(st.GlobalBits, amps, len(amps)/len(r.sh.Amps))
	}
	d := time.Since(t0)
	r.commTime += d
	if r.sh.Observe != nil {
		r.observe(r.plan.Ops[st.Swap:st.End], t0, []time.Duration{d})
	}
}

// snapshot runs the collective snapshot protocol at the boundary before
// stage next: every rank persists its shard, a barrier makes all shards
// durable before anything is promised, rank 0 commits the manifest (the
// commit point), and a second barrier publishes the outcome. A rank that
// dies anywhere in the protocol leaves either the previous snapshot or the
// new one intact — never a half-written mixture. A disk that stays full
// drops the boundary (ckpt.Snapshot) and the run keeps computing.
func (r *rank[T]) snapshot(snap *ckpt.Snapshot, next int) error {
	t0 := r.sc.Now()
	if err := snap.Tee(r.c.Rank(), kernels.AmpBytes(r.sh.Amps)); err != nil {
		return fmt.Errorf("dist: writing stage-%d shard for rank %d: %w", next, r.c.Rank(), err)
	}
	r.c.Barrier()
	if r.c.Rank() == 0 {
		snap.Commit()
	}
	r.c.Barrier()
	if err := snap.Commit(); err != nil {
		return fmt.Errorf("dist: committing stage-%d snapshot: %w", next, err)
	}
	r.sc.Complete("ckpt", "checkpoint", t0, time.Since(t0), telemetry.A("next_stage", next), telemetry.A("amps", len(r.sh.Amps)))
	return nil
}

// sample implements distributed sampling: every rank shares only its total
// probability weight, and statevec.DrawUnit, the same two-level draw on
// every rank, picks this rank's shots and their indices in its store, fed
// unit by unit, which it writes into samples as logical basis states. Only
// the Allgather counts toward commTime.
func (r *rank[T]) sample(localNorm float64, l int, seed int64, samples []int) (err error) {
	t0 := time.Now()
	weights := r.c.AllgatherFloat64(localNorm)
	r.commTime += time.Since(t0)
	mine, idx := statevec.DrawUnit(seed, len(samples), weights, r.c.Rank(), func(s *statevec.Sampler) {
		if err == nil {
			err = r.store.Units(func(u []T) error { statevec.FeedAmps(s, u); return nil })
		}
	})
	for j, i := range idx {
		samples[mine[j]] = r.plan.LogicalIndex(r.c.Rank()<<l | i)
	}
	return err
}
