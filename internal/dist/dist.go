// Package dist executes scheduled plans across 2^g simulated MPI ranks —
// the multi-node layer of Sec. 3.4–3.5 of Häner & Steiger, SC'17. Each rank
// owns 2^l amplitudes; non-diagonal gates run through the local kernels,
// diagonal gates on global qubits run via specialization without
// communication, and global-to-local swaps run as in-place group exchanges:
// a rank holds its shard and two staged pieces of the exchange, never a
// second shard.
//
// Run is the package's one executor. The per-gate baseline scheme of
// [19]/[5] that the Table 2 speedup comparison needs is a plan like any
// other (schedule.PerGate): its pairwise half-vector exchange for a dense
// gate on a global qubit is the one-qubit global-to-local swap, there and
// back. RunBaseline builds that plan and calls Run.
//
// With Options.Checkpoint set, Run becomes crash-tolerant: ranks snapshot
// their amplitude shards at stage boundaries (package ckpt's atomic
// commit protocol), collective payloads carry checksums, and any detected
// transport failure — dead rank, corrupted payload, stalled collective —
// triggers a restart from the newest valid snapshot that re-executes only
// the remaining stages. Restored amplitudes are bit-exact, so a recovered
// run produces the same result as an uninterrupted one.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"qusim/internal/ckpt"
	"qusim/internal/fsio"
	"qusim/internal/kernels"
	"qusim/internal/mpi"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// InitState selects the initial state of a run.
type InitState int

const (
	// InitZero starts in |0…0⟩.
	InitZero InitState = iota
	// InitUniform starts in the uniform superposition — the direct
	// initialization that replaces the supremacy circuits' first Hadamard
	// cycle (Sec. 3.6).
	InitUniform
)

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
	// corrupt, then rank-dead, then stalled.
	Restarts         int
	RestartsCorrupt  int
	RestartsRankDead int
	RestartsStalled  int
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

	// Amplitudes holds the gathered full state when GatherState was set
	// (index layout: rank bits are the top g bits — location p ≥ l is rank
	// bit p−l).
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
	Init  InitState
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
	// boundaries, and a detected transport failure restarts the run from
	// the newest valid snapshot (up to ckpt.MaxRestarts times).
	// Setting it also turns on collective payload checksums.
	Checkpoint *ckpt.Policy
	// Resume makes the FIRST attempt look for a restorable snapshot in
	// Checkpoint.Dir before initializing — continuing an earlier process's
	// interrupted run. Without it only failure recovery restores.
	Resume bool
	// CommDeadline bounds each attempt's wall time; a rank hung outside
	// the communication layer surfaces as a recoverable stall instead of a
	// hang. Zero disables the bound.
	CommDeadline time.Duration
	// Retry shapes the recovery loop between attempts: jittered
	// exponential backoff and a whole-run deadline. Nil keeps the legacy
	// behavior — immediate restarts, bounded only by ckpt.MaxRestarts.
	Retry *RetryPolicy

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

// ErrRunDeadline marks a checkpointed run abandoned because RetryPolicy.
// Deadline expired before an attempt completed. Test with errors.Is.
var ErrRunDeadline = errors.New("dist: run deadline exceeded")

// RetryPolicy shapes the recovery loop of a checkpointed run. The number
// of attempts is still bounded by ckpt.MaxRestarts; the policy adds
// pacing (so a persistently failing environment is not hammered in a tight
// loop) and an overall give-up clock.
type RetryPolicy struct {
	// BaseDelay is the nominal wait before the first restart; each further
	// restart doubles it, capped at MaxDelay. The actual sleep is jittered
	// to [d/2, d] so co-failing runs don't retry in lockstep. Zero
	// restarts immediately.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0: uncapped).
	MaxDelay time.Duration
	// Deadline bounds the whole run — compute, backoff and restarts
	// together. When it expires the run fails with ErrRunDeadline even if
	// restarts remain. Zero disables the bound.
	Deadline time.Duration
	// Seed seeds the jitter source; runs with equal seeds back off
	// identically.
	Seed int64
}

// delay returns the jittered backoff before restart number r (1-based).
func (p *RetryPolicy) delay(r int, rng *rand.Rand) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < r; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// classifyRestart partitions a recoverable failure by class — corrupt
// first (a corrupted payload is the root cause even when its collective
// also stalled), then rank-dead (which wraps ErrStalled by construction),
// then pure stalls.
func classifyRestart(err error, res *Result, tel *telemetry.Telemetry) {
	switch {
	case errors.Is(err, mpi.ErrCorrupt):
		res.RestartsCorrupt++
		tel.Counter("dist.restart_corrupt").Inc()
	case errors.Is(err, mpi.ErrRankDead):
		res.RestartsRankDead++
		tel.Counter("dist.restart_rank_dead").Inc()
	case errors.Is(err, mpi.ErrStalled):
		res.RestartsStalled++
		tel.Counter("dist.restart_stalled").Inc()
	}
}

// attemptOut collects one attempt's results. It is attempt-local on
// purpose: an attempt abandoned on deadline may have ranks hung in compute
// that wake later, and they must not share memory with the next attempt.
type attemptOut struct {
	mu          sync.Mutex
	norm        float64
	entropy     float64
	elapsed     time.Duration
	commElapsed time.Duration
	amplitudes  []complex128
	locals      [][]complex128 // each rank's shard at the end, for the mem.* gauges
	samples     []int          // each rank writes the shots it owns
	profile     []ProfileEntry
	passes      int // a rank's passes over its shard and, of those,
	runs        int // the blocked runs: the same on every rank (Options.Profile)

	shards  []ckpt.ShardInfo // checkpoint protocol scratch, indexed by rank
	written atomic.Int64     // snapshots committed this attempt
	skipped atomic.Int64     // snapshots dropped on persistent ENOSPC

	// skipStage holds the stage cursor of a checkpoint some rank could not
	// persist (ENOSPC after pruning): rank 0 sees it after the pre-commit
	// barrier and skips the commit. It stores the stage number rather than
	// a flag so a value left behind by one checkpoint can never taint the
	// next (stage cursors are distinct and ≥ 1).
	skipStage atomic.Int64

	// commitErr publishes rank 0's Commit outcome to the other ranks; the
	// barriers on either side of the commit order the accesses.
	commitErr error
}

// Run executes a plan produced by schedule.Build. plan.L must equal
// n − log2(Ranks).
func Run(plan *schedule.Plan, opts Options) (*Result, error) {
	ranks := opts.Ranks
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return nil, fmt.Errorf("dist: rank count %d is not a power of two", ranks)
	}
	g := bits.TrailingZeros(uint(ranks))
	if plan.N-plan.L != g && !(ranks == 1 && plan.L >= plan.N) {
		return nil, fmt.Errorf("dist: plan has %d global qubits, world provides %d", plan.N-plan.L, g)
	}
	l := plan.N - g

	res := &Result{Ranks: ranks, LocalQubits: l}
	attempts := 1
	var meta ckpt.Meta
	if ck := opts.Checkpoint; ck != nil {
		if ck.Dir == "" {
			return nil, fmt.Errorf("dist: checkpoint policy has no directory")
		}
		if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("dist: checkpoint dir: %w", err)
		}
		attempts = ckpt.MaxRestarts + 1
		meta = ckpt.Meta{PlanHash: plan.Fingerprint(), N: plan.N, L: l, Ranks: ranks}
	}

	tryResume := opts.Resume
	tel := opts.Telemetry
	var jrng *rand.Rand
	if opts.Retry != nil {
		jrng = rand.New(rand.NewSource(opts.Retry.Seed))
	}
	runStart := time.Now()
	var lastErr error
	var failedAt time.Time // when the previous attempt's failure surfaced
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			res.Restarts++
			classifyRestart(lastErr, res, tel)
			tryResume = true // recover from whatever the failed attempt committed
			if rp := opts.Retry; rp != nil {
				if rp.Deadline > 0 && time.Since(runStart) >= rp.Deadline {
					return nil, fmt.Errorf("dist: %w after %d restarts: %w", ErrRunDeadline, res.Restarts-1, lastErr)
				}
				if d := rp.delay(attempt, jrng); d > 0 {
					time.Sleep(d)
				}
			}
			// Failure detection → restored attempt start: the latency a
			// fault-tolerance budget actually pays per recovery.
			tel.Histogram("dist.recovery_latency_ns").ObserveSince(failedAt)
		}
		tel.Counter("dist.attempts").Inc()
		err := runAttempt(plan, opts, l, meta, tryResume, res)
		if err == nil {
			return res, nil
		}
		failedAt = time.Now()
		lastErr = err
		if opts.Checkpoint == nil || !mpi.Recoverable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("dist: giving up after %d restarts: %w", res.Restarts, lastErr)
}

// runAttempt executes the plan once — possibly from a restored snapshot —
// and folds the attempt's results and counters into res on success
// (counters are folded on failure too; result fields only on success).
func runAttempt(plan *schedule.Plan, opts Options, l int, meta ckpt.Meta, tryResume bool, res *Result) error {
	ranks := opts.Ranks
	localLen := 1 << l
	ck := opts.Checkpoint

	// Recovery walk: newest manifest whose shards all verify, matching this
	// exact plan and geometry. None found (or resume off) → fresh start.
	var man *ckpt.Manifest
	startStage := 0
	if ck != nil && tryResume {
		var err error
		man, err = ckpt.FindRestorable(ck.Dir, meta)
		if err != nil {
			return fmt.Errorf("dist: scanning %s for snapshots: %w", ck.Dir, err)
		}
		if man != nil {
			startStage = man.NextStage
			res.CheckpointsRestored++
		}
	}

	w := mpi.NewWorld(ranks)
	if opts.Faults != nil {
		w.InjectFaults(opts.Faults)
	}
	w.SetTelemetry(opts.Telemetry)
	w.SetVerifyChecksums(ck != nil)
	if opts.CommDeadline > 0 {
		w.SetDeadline(opts.CommDeadline)
	}
	out := &attemptOut{locals: make([][]complex128, ranks)}
	if ck != nil {
		out.shards = make([]ckpt.ShardInfo, ranks)
	}
	if opts.GatherState {
		out.amplitudes = kernels.NewAmps[complex128](1 << plan.N)
	}
	if opts.SampleShots > 0 {
		out.samples = make([]int, opts.SampleShots)
	}
	// Compiled once for all ranks: a stage's diagonal tables exist once, not
	// once per rank.
	stages, err := (&schedule.Shard[complex128]{L: l}).Stages(plan, startStage)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		// Engine timeline: pid = rank, tid 0 (the comm layer records on
		// tid 1 of the same pid). Restart attempts merge onto one timeline.
		sc := opts.Telemetry.Scope(c.Rank(), 0, fmt.Sprintf("rank %d", c.Rank()), "engine")
		attemptT0 := sc.Now()

		local := kernels.NewAmps[complex128](localLen)
		if man != nil {
			t0 := sc.Now()
			if err := ckpt.ReadShard(ck.Dir, man, c.Rank(), local); err != nil {
				return fmt.Errorf("dist: restoring rank %d from stage-%d snapshot: %w", c.Rank(), man.NextStage, err)
			}
			if sc != nil {
				sc.Complete("ckpt", "restore", t0, time.Since(t0),
					telemetry.A("stage", man.NextStage), telemetry.A("amps", localLen))
			}
		} else {
			switch opts.Init {
			case InitZero:
				if c.Rank() == 0 {
					local[0] = 1
				}
			case InitUniform:
				a := complex(math.Pow(2, -float64(plan.N)/2), 0)
				for i := range local {
					local[i] = a
				}
			}
		}
		// The rank's shard, for good: permutations and exchanges run in
		// place. A failed attempt — a corrupted piece, a dead rank — leaves
		// shards half permuted or half exchanged; nothing reads them again,
		// the next attempt restores into fresh ones.
		sh := schedule.Shard[complex128]{Amps: local, L: l, Index: c.Rank()}
		start := time.Now()
		var commTime time.Duration
		var profDur [4]time.Duration
		var profOps [4]int
		var passes, runs int
		// One clock pair per pass over the shard feeds everything downstream
		// — the comm accounting, the profile breakdown and the trace span —
		// so the three views of "where did the time go" cannot disagree. An
		// op is a pass of its own or, inside a blocked run, one of several
		// sharing a pass and a "run" span; the profile counts it either way.
		observe := func(ops []schedule.Op, t0 time.Time, took []time.Duration) {
			var d time.Duration
			for i := range ops {
				d += took[i]
				profDur[ops[i].Kind] += took[i]
				profOps[ops[i].Kind]++
			}
			passes++
			if len(ops) > 1 {
				runs++
			}
			switch {
			case sc == nil:
			case len(ops) == 1:
				sc.Complete("stage", ops[0].Kind.String(), t0, d, schedule.OpTraceArgs(&ops[0])...)
			default:
				sc.Complete("stage", "run", t0, d, telemetry.A("stage", ops[0].Stage), telemetry.A("ops", len(ops)))
			}
		}
		if opts.Profile || sc != nil {
			sh.Observe = observe
		}

		for _, st := range stages {
			sh.Exec(st.Prog)
			if st.Exchanges() {
				// The global-to-local swap: local locations [l−q, l) against
				// the rank bits GlobalBits, one group exchange per 2^(g−q)
				// rank group (Sec. 3.4, Fig. 3), in place.
				t0 := time.Now()
				c.GroupExchange(st.GlobalBits, local)
				d := time.Since(t0)
				commTime += d
				if sh.Observe != nil {
					observe(plan.Ops[st.Swap:st.End], t0, []time.Duration{d})
				}
			}
			// Stage boundary: snapshot the state the remaining stages start
			// from.
			if next := st.Stage + 1; ck.Due(next, startStage, plan.Stages()) {
				ct0 := sc.Now()
				if err := writeCheckpoint(c, out, meta, ck, local, next, opts.Telemetry); err != nil {
					return err
				}
				if sc != nil {
					sc.Complete("ckpt", "checkpoint", ct0, time.Since(ct0),
						telemetry.A("next_stage", next), telemetry.A("amps", localLen))
				}
			}
		}

		// Final reductions (norm + entropy), as in the Edison entropy run.
		// The sweep over the local amplitudes is pure local compute; only
		// the collectives below count toward CommElapsed.
		localNorm, ent := kernels.NormEntropy(local)
		t0 := time.Now()
		norm := c.AllreduceSum(localNorm)
		ent = c.AllreduceSum(ent)
		commTime += time.Since(t0)
		if sc != nil {
			sc.Complete("dist", "reduce", t0, time.Since(t0))
		}
		if opts.SampleShots > 0 {
			st0 := sc.Now()
			sampleLocal(c, plan, local, localNorm, l, opts.SampleSeed, out.samples, &commTime)
			if sc != nil {
				sc.Complete("dist", "sample", st0, time.Since(st0),
					telemetry.A("shots", opts.SampleShots))
			}
		}
		elapsed := time.Since(start)
		if sc != nil {
			sc.Complete("dist", "attempt", attemptT0, time.Since(attemptT0),
				telemetry.A("start_stage", startStage))
		}

		out.mu.Lock()
		out.locals[c.Rank()] = local
		out.norm = norm
		out.entropy = ent
		if elapsed > out.elapsed {
			out.elapsed = elapsed
		}
		if commTime > out.commElapsed {
			out.commElapsed = commTime
		}
		if opts.GatherState {
			copy(out.amplitudes[c.Rank()<<l:], local)
		}
		if opts.Profile {
			if out.profile == nil {
				out.profile = make([]ProfileEntry, 4)
				for k := schedule.OpCluster; k <= schedule.OpSwap; k++ {
					out.profile[k].Kind = k.String()
				}
			}
			// Ops and Duration must come from the same rank: report both
			// from the max-duration rank (≥ so zero-duration kinds still
			// pick up a consistent op count).
			for k := range profDur {
				if profDur[k] >= out.profile[k].Duration {
					out.profile[k].Duration = profDur[k]
					out.profile[k].Ops = profOps[k]
				}
			}
			out.passes, out.runs = passes, runs
		}
		out.mu.Unlock()
		return nil
	})

	// Counters accumulate across attempts, success or not. The traffic and
	// fault counters are atomics, safe even if a deadline left a rank
	// behind; out.written is atomic for the same reason.
	res.CommSteps += int(w.Traffic.Steps.Load())
	res.CommBytes += w.Traffic.Bytes.Load()
	res.FaultEvents += w.FaultEvents()
	res.CheckpointsWritten += int(out.written.Load())
	res.CheckpointsSkipped += int(out.skipped.Load())
	if err != nil {
		return err
	}
	kernels.ObservePages(opts.Telemetry, out.locals...)
	res.Norm = out.norm
	res.Entropy = out.entropy
	res.Elapsed += out.elapsed
	res.CommElapsed += out.commElapsed
	res.Amplitudes = out.amplitudes
	res.Samples = out.samples
	res.Profile = out.profile
	res.ProfilePasses, res.ProfileRuns = out.passes, out.runs
	return nil
}

// writeCheckpoint runs the collective snapshot protocol at a stage
// boundary: every rank persists its shard, a barrier makes all shards
// durable before anything is promised, rank 0 atomically commits the
// manifest (the commit point), and a second barrier publishes the outcome.
// A rank that dies anywhere in the protocol leaves either the previous
// snapshot or the new one intact — never a half-written mixture.
//
// A full disk degrades instead of aborting: ckpt retries each write once
// after pruning the oldest snapshot; if space is still short the whole
// checkpoint is skipped (no commit, stage-local shards discarded, the
// previous snapshot stays authoritative) and the run keeps computing.
func writeCheckpoint(c *mpi.Comm, out *attemptOut, meta ckpt.Meta, pol *ckpt.Policy, local []complex128, nextStage int, tel *telemetry.Telemetry) error {
	m := meta
	m.NextStage = nextStage
	info, err := ckpt.WriteShard(pol.Dir, m, c.Rank(), local)
	switch {
	case err == nil:
		out.shards[c.Rank()] = info
	case fsio.IsNoSpace(err):
		out.skipStage.Store(int64(nextStage))
	default:
		return fmt.Errorf("dist: writing stage-%d shard for rank %d: %w", nextStage, c.Rank(), err)
	}
	c.Barrier()
	if c.Rank() == 0 {
		skip := out.skipStage.Load() == int64(nextStage)
		var cerr error
		if !skip {
			_, cerr = ckpt.Commit(pol.Dir, m, out.shards, pol.KeepN())
			if fsio.IsNoSpace(cerr) {
				skip, cerr = true, nil
			}
		}
		out.commitErr = cerr
		switch {
		case skip:
			out.skipped.Add(1)
			tel.Counter("dist.ckpt_skipped").Inc()
			ckpt.DiscardStage(pol.Dir, nextStage)
		case cerr == nil:
			out.written.Add(1)
		}
	}
	c.Barrier()
	if out.commitErr != nil {
		return fmt.Errorf("dist: committing stage-%d snapshot: %w", nextStage, out.commitErr)
	}
	return nil
}

// sampleLocal implements distributed sampling: every rank shares only its
// total probability weight; a stream seeded by seed assigns each shot to a
// rank by weight (identically on every rank, no communication); the owning
// rank draws the in-rank index with a stream of its own and writes the
// logical basis state into samples. Both are statevec.Draw's walks, so no
// rank holds a buffer per amplitude. Only the Allgather counts toward
// commTime.
func sampleLocal(c *mpi.Comm, plan *schedule.Plan, local []complex128, localNorm float64, l int, seed int64, samples []int, commTime *time.Duration) {
	t0 := time.Now()
	weights := c.AllgatherFloat64(localNorm)
	*commTime += time.Since(t0)
	var mine []int
	for s, r := range statevec.Draw(rand.New(rand.NewSource(seed)), len(samples), func(s *statevec.Sampler) { s.Weights(weights) }) {
		if r == c.Rank() {
			mine = append(mine, s)
		}
	}
	if len(mine) == 0 {
		return
	}
	localRng := rand.New(rand.NewSource(seed*31 + int64(c.Rank()) + 1))
	for j, idx := range statevec.Draw(localRng, len(mine), func(s *statevec.Sampler) { statevec.FeedAmps(s, local) }) {
		samples[mine[j]] = plan.LogicalIndex(c.Rank()<<l | idx)
	}
}
