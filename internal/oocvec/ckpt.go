package oocvec

import (
	"fmt"

	"qusim/internal/ckpt"
	"qusim/internal/fsio"
	"qusim/internal/schedule"
)

// Checkpointing for the out-of-core backend: the state never fits in
// memory, so snapshots stream chunk by chunk through the vector's one
// in-memory buffer — a sequential read of the backing file into a shard
// writer, and a sequential shard read back into the file on restore. The
// snapshot records L = N (one logical shard covering the whole state), so
// it is independent of the chunk size it was written with: a run may
// resume with a different in-memory budget.

// snapshotMeta is the identity an out-of-core snapshot is saved and
// matched under.
func (v *Vector) snapshotMeta(plan *schedule.Plan) ckpt.Meta {
	return ckpt.Meta{PlanHash: plan.Fingerprint(), N: v.N, L: v.N, Ranks: 1}
}

// Checkpoint commits a snapshot of the current state taken at the
// nextStage boundary, streaming the file through the chunk buffer.
func (v *Vector) Checkpoint(dir string, plan *schedule.Plan, nextStage, keep int) error {
	meta := v.snapshotMeta(plan)
	meta.NextStage = nextStage
	sw, err := ckpt.NewShardWriter(dir, meta, 0, 1<<v.N)
	if err != nil {
		return err
	}
	for c := 0; c < v.Chunks(); c++ {
		if err := v.readChunk(c, v.buf); err != nil {
			sw.Abort()
			return err
		}
		if err := sw.Write(v.buf); err != nil {
			sw.Abort()
			return err
		}
	}
	info, err := sw.Close()
	if err != nil {
		return err
	}
	_, err = ckpt.Commit(dir, meta, []ckpt.ShardInfo{info}, keep)
	return err
}

// Restore streams the snapshot committed in man back into the backing
// file, verifying the shard checksum along the way.
func (v *Vector) Restore(dir string, man *ckpt.Manifest) error {
	if man.N != v.N || man.Ranks != 1 || len(man.Shards) != 1 {
		return fmt.Errorf("oocvec: manifest (n=%d, %d shards) does not fit this vector: %w",
			man.N, len(man.Shards), ckpt.ErrInvalid)
	}
	sr, err := ckpt.OpenShard(dir, man, 0)
	if err != nil {
		return err
	}
	for c := 0; c < v.Chunks(); c++ {
		if err := sr.Read(v.buf); err != nil {
			sr.Close()
			return err
		}
		if err := v.writeChunk(c, v.buf); err != nil {
			sr.Close()
			return err
		}
	}
	return sr.Close()
}

// RunCheckpointed executes the plan with snapshots every pol.Every()
// completed stages. With resume set it first looks for the newest valid
// snapshot of this exact plan in pol.Dir and re-executes only the stages
// past it. It returns the stage the run resumed from (−1 for a fresh
// start) and the number of snapshots committed.
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
	every := pol.Every()
	nstages := plan.Stages()
	for s := start; s < nstages; s++ {
		if err := v.runPipelined(plan, s, s+1); err != nil {
			return restoredStage, written, err
		}
		// Snapshot at the stage boundary; the end of the final stage is
		// skipped — there is nothing left to resume into.
		if s+1 < nstages && (s+1)%every == 0 {
			cerr := v.Checkpoint(pol.Dir, plan, s+1, pol.KeepN())
			if cerr != nil && fsio.IsNoSpace(cerr) {
				// Out of space: reclaim the oldest snapshot and retry
				// once; if the disk is still full, drop this snapshot and
				// keep computing — a missed checkpoint only means a
				// longer replay if the run later has to restart.
				if ckpt.PruneOldest(pol.Dir) {
					cerr = v.Checkpoint(pol.Dir, plan, s+1, pol.KeepN())
				}
				if cerr != nil && fsio.IsNoSpace(cerr) {
					v.ckptSkipped++
					v.tel.ckptSkipped.Inc()
					ckpt.DiscardStage(pol.Dir, s+1)
					continue
				}
			}
			if cerr != nil {
				return restoredStage, written, cerr
			}
			written++
		}
	}
	return restoredStage, written, nil
}
