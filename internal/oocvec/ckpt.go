package oocvec

import (
	"fmt"
	"time"

	"qusim/internal/ckpt"
	"qusim/internal/fsio"
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

// snapshot is the shard of one stage boundary while chunks are fed to it.
// ckpt repeats a write the disk has no room for once, after pruning the
// oldest snapshot. If ENOSPC persists, Checkpoint returns it; a
// droppable snapshot — RunCheckpointed's — is dropped (shard aborted, the
// boundary's files discarded, counted in CheckpointsSkipped) and the run
// goes on: a missed snapshot only means a longer replay after a restart.
// Methods are no-ops on a nil or dropped snapshot.
type snapshot struct {
	v         *Vector
	dir       string
	meta      ckpt.Meta
	keep      int
	droppable bool
	sw        *ckpt.ShardWriter // nil once dropped
	done      bool              // manifest committed
	sc        *telemetry.Scope  // timeline of whoever feeds the chunks
	t0        time.Time         // zero unless sc records
}

// beginSnapshot opens the shard of the nextStage boundary.
func (v *Vector) beginSnapshot(sc *telemetry.Scope, dir string, plan *schedule.Plan, nextStage, keep int, droppable bool) (*snapshot, error) {
	s := &snapshot{v: v, dir: dir, meta: v.snapshotMeta(plan), keep: keep, droppable: droppable, sc: sc, t0: sc.Now()}
	s.meta.NextStage = nextStage
	var err error
	s.sw, err = ckpt.NewShardWriter(dir, s.meta, 0, 1<<v.N)
	return s, s.absorb(err)
}

// tee appends one chunk, the next in plan order, to the shard.
func (s *snapshot) tee(chunk []complex128) error {
	if s == nil || s.sw == nil {
		return nil
	}
	return s.absorb(s.sw.Write(chunk))
}

// commit makes the snapshot durable and restorable: shard trailer, fsync
// and rename, then the manifest — the ckpt commit protocol unchanged.
func (s *snapshot) commit() error {
	if s == nil || s.sw == nil {
		return nil
	}
	info, err := s.sw.Close()
	if err == nil {
		_, err = ckpt.Commit(s.dir, s.meta, []ckpt.ShardInfo{info}, s.keep)
	}
	if err = s.absorb(err); err != nil || s.sw == nil {
		return err
	}
	s.done = true
	if !s.t0.IsZero() {
		s.sc.Complete("ckpt", "tee", s.t0, time.Since(s.t0), telemetry.A("stage", s.meta.NextStage),
			telemetry.A("chunks", s.v.Chunks()), telemetry.A("bytes", int64(ampBytes)<<s.v.N))
	}
	return nil
}

// absorb applies the drop policy to the outcome of a step.
func (s *snapshot) absorb(err error) error {
	if err == nil || !s.droppable || !fsio.IsNoSpace(err) {
		return err
	}
	s.abort()
	s.v.ckptSkipped++
	s.v.tel.ckptSkipped.Inc()
	ckpt.DiscardStage(s.dir, s.meta.NextStage)
	return nil
}

// abort discards the unfinished shard.
func (s *snapshot) abort() {
	if s != nil && s.sw != nil {
		s.sw.Abort()
		s.sw = nil
	}
}

// Checkpoint commits a snapshot of the current state taken at the
// nextStage boundary, streaming the state through the first chunk buffer.
func (v *Vector) Checkpoint(dir string, plan *schedule.Plan, nextStage, keep int) error {
	snap, err := v.beginSnapshot(v.tel.sc, dir, plan, nextStage, keep, false)
	if err == nil {
		err = v.stream(snap.tee)
	}
	if err != nil {
		snap.abort()
		return err
	}
	return snap.commit()
}

// Restore streams the snapshot committed in man back into the backing
// file, chunk by chunk through the vector's layout, verifying the shard
// checksum along the way.
func (v *Vector) Restore(dir string, man *ckpt.Manifest) error {
	if man.N != v.N || man.Ranks != 1 || len(man.Shards) != 1 {
		return fmt.Errorf("oocvec: manifest (n=%d, %d shards) does not fit this vector: %w",
			man.N, len(man.Shards), ckpt.ErrInvalid)
	}
	sr, err := ckpt.OpenShard(dir, man, 0)
	if err != nil {
		return err
	}
	buf := v.pool[0]
	for c := 0; c < v.Chunks(); c++ {
		if err := sr.Read(buf); err != nil {
			sr.Close()
			return err
		}
		if err := v.chunkIO(c, buf, true); err != nil {
			sr.Close()
			return err
		}
	}
	return sr.Close()
}

// RunCheckpointed executes the plan with a snapshot of every stage boundary
// pol.Due names, each written by the reader of the stage that follows it
// and committed once that reader has read the whole file: a crash inside
// stage s resumes from boundary s−1 or, past that commit, s. With resume
// set it first looks for the newest valid snapshot of this exact plan in
// pol.Dir and re-executes only the stages past it. It returns the stage the
// run resumed from (−1 for a fresh start) and the number of snapshots
// committed.
func (v *Vector) RunCheckpointed(plan *schedule.Plan, pol *ckpt.Policy, resume bool) (restoredStage, written int, err error) {
	restoredStage = -1
	if plan.N != v.N || plan.L != v.L {
		return restoredStage, 0, fmt.Errorf("oocvec: plan (n=%d l=%d) does not match vector (n=%d l=%d)", plan.N, plan.L, v.N, v.L)
	}
	start := 0
	if resume {
		man, ferr := ckpt.FindRestorable(pol.Dir, v.snapshotMeta(plan))
		if ferr != nil {
			return restoredStage, 0, ferr
		}
		if man != nil {
			if err := v.Restore(pol.Dir, man); err != nil {
				return restoredStage, 0, err
			}
			start = man.NextStage
			restoredStage = man.NextStage
		}
	}
	written, err = v.runPipelined(plan, start, pol)
	return restoredStage, written, err
}
