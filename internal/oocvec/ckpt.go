package oocvec

import (
	"fmt"
	"time"

	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/kernels"
	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

// Checkpointing for the out-of-core backend: the state never fits in
// memory, so a snapshot is written chunk by chunk, in plan order whatever
// the file's layout — by the prefetch reader of the stage that follows the
// boundary (pipeline.go) or, for Checkpoint, by a plain stream of the state
// — and read back the same way. The snapshot records L = N (one logical
// shard covering the whole state), so it is independent of the chunk size
// it was written with: a run may resume with a different in-memory budget.

// snapshotMeta is the identity an out-of-core snapshot is saved and
// matched under.
func (v *Vector) snapshotMeta(plan *schedule.Plan) ckpt.Meta {
	return ckpt.Meta{PlanHash: plan.Fingerprint(), N: v.N, L: v.N, Ranks: 1}
}

// Checkpoint commits a snapshot of the current state taken at the
// nextStage boundary in dir, on the real file system, streaming the state
// through the first chunk buffer. A disk that stays full fails it.
func (v *Vector) Checkpoint(dir string, plan *schedule.Plan, nextStage, keep int) error {
	ck := ckpt.NewWriter(&ckpt.Policy{Dir: dir, Keep: keep}, v.snapshotMeta(plan), v.tel.t)
	snap, t0 := ck.Snapshot(nextStage), v.tel.sc.Now()
	if err := v.Units(func(chunk []complex128) error { return snap.Tee(0, kernels.AmpBytes(chunk)) }); err != nil {
		snap.Abort()
		return err
	}
	if err := snap.Commit(); err != nil {
		return err
	}
	v.teeSpan(v.tel.sc, t0, nextStage)
	return nil
}

// teeSpan records on sc the snapshot of boundary next, written since t0.
func (v *Vector) teeSpan(sc *telemetry.Scope, t0 time.Time, next int) {
	if !t0.IsZero() {
		sc.Complete("ckpt", "tee", t0, time.Since(t0), telemetry.A("stage", next),
			telemetry.A("chunks", v.Chunks()), telemetry.A("bytes", int64(ampBytes)<<v.N))
	}
}

// Restore streams the snapshot committed in man, in dir on the real file
// system, back into the backing file, chunk by chunk through the vector's
// layout, verifying the shard checksum along the way. From then on reads
// read the file.
func (v *Vector) Restore(dir string, man *ckpt.Manifest) error {
	return v.restore(ckpt.NewWriter(&ckpt.Policy{Dir: dir}, man.Meta, v.tel.t), man)
}

func (v *Vector) restore(ck *ckpt.Writer, man *ckpt.Manifest) error {
	if man.N != v.N || man.Ranks != 1 || len(man.Shards) != 1 || man.Shards[0].Amps != 1<<v.N || man.AmpBytes != 0 {
		return fmt.Errorf("oocvec: manifest (n=%d, %d shards) does not fit this vector: %w",
			man.N, len(man.Shards), ckpt.ErrInvalid)
	}
	c := -1
	v.fresh, v.kept = false, false
	return ck.StreamShard(man, 0, kernels.AmpBytes(v.pool[0]), func([]byte) error {
		c++
		return v.chunkIO(c, v.pool[0], true)
	})
}

// RunCheckpointed executes the plan with a snapshot of every stage boundary
// pol.Due names, each written by the reader of the stage that follows it
// and committed once that reader has read the whole file: a crash inside
// stage s resumes from boundary s−1 or, past that commit, s. With resume
// set it first looks for the newest valid snapshot of this exact plan in
// pol.Dir and re-executes only the stages past it. It is dist.Run on the one
// rank of a world that holds the vector, so a file error past the in-place
// retries restarts it from the newest snapshot, or the created state, up to
// ckpt.MaxRestarts times. Every snapshot file goes through pol.FS. It
// returns the stage the last attempt resumed from (−1 for a fresh start)
// and the number of snapshots committed.
func (v *Vector) RunCheckpointed(plan *schedule.Plan, pol *ckpt.Policy, resume bool) (restoredStage, written int, err error) {
	v.from = -1
	if plan.N != v.N || plan.L != v.L {
		return -1, 0, fmt.Errorf("oocvec: plan (n=%d l=%d) does not match vector (n=%d l=%d)", plan.N, plan.L, v.N, v.L)
	}
	res, err := dist.Run(plan, dist.Options{Ranks: 1, Init: v.start, Store: v, Checkpoint: pol, Resume: resume, Telemetry: v.tel.t})
	if res != nil {
		v.ckptSkipped, written = v.ckptSkipped+res.CheckpointsSkipped, res.CheckpointsWritten
	}
	return v.from, written, err
}
