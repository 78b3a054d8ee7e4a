package ckpt

import (
	"errors"
	"path/filepath"
	"testing"

	"qusim/internal/chaos"
	"qusim/internal/fsio"
	"qusim/internal/kernels"
	"qusim/internal/telemetry"
)

// brokenRemoveFS delegates to the real OS but refuses every Remove — the
// "undeletable snapshot" failure mode (EBUSY, permission drift, a stuck
// NFS handle) the prune-failure accounting exists for.
type brokenRemoveFS struct {
	fsio.OS
	attempts int
}

func (b *brokenRemoveFS) Remove(name string) error {
	b.attempts++
	return errors.New("injected: remove refused")
}

func TestPruneOldestRemovesOldestOnly(t *testing.T) {
	w := osWriter(t.TempDir())
	writeCheckpoint(t, w, 1)
	writeCheckpoint(t, w, 2)

	if !w.pruneOldest() {
		t.Fatal("pruneOldest removed nothing with two checkpoints present")
	}
	m := w.FindRestorable()
	if m == nil {
		t.Fatal("newest checkpoint lost by prune")
	}
	if m.NextStage != 2 {
		t.Errorf("survivor is stage %d, want 2 (the newest)", m.NextStage)
	}
	if _, err := w.loadManifest(filepath.Join(w.pol.Dir, manifestName(1))); err == nil {
		t.Error("oldest manifest survived pruneOldest")
	}

	// With a single checkpoint left there is nothing safe to reclaim.
	if w.pruneOldest() {
		t.Error("pruneOldest removed the last remaining checkpoint")
	}
}

// TestPruneFailureCountedNotFatal pins the degradation contract: a prune
// that cannot delete leaves both checkpoints restorable, reports no error
// to the caller, and surfaces only as the ckpt.prune_failures counter.
func TestPruneFailureCountedNotFatal(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, osWriter(dir), 1)
	writeCheckpoint(t, osWriter(dir), 2)

	tel := telemetry.New()
	fs := &brokenRemoveFS{}
	w := NewWriter(&Policy{Dir: dir, FS: fs}, testMeta(0), tel)

	if w.pruneOldest() {
		t.Error("pruneOldest claimed success though every Remove failed")
	}
	if fs.attempts == 0 {
		t.Fatal("injected FS never reached — the scenario tested nothing")
	}
	if got := tel.Counter("ckpt.prune_failures").Value(); got == 0 {
		t.Error("ckpt.prune_failures did not count the failed removals")
	}
	for stage := 1; stage <= 2; stage++ {
		if _, err := w.loadManifest(filepath.Join(dir, manifestName(stage))); err != nil {
			t.Errorf("stage %d no longer restorable after failed prune: %v", stage, err)
		}
	}
}

func TestDiscardStageSparesCommittedShards(t *testing.T) {
	dir := t.TempDir()
	w := osWriter(dir)
	m := writeCheckpoint(t, w, 3)

	// The stage is committed: its shards are live checkpoint data, so
	// discardStage must be a no-op even though the glob matches them.
	w.discardStage(3)
	got := make([]complex128, 1<<m.L)
	for r := 0; r < m.Ranks; r++ {
		if err := w.StreamShard(m, r, kernels.AmpBytes(got), nil); err != nil {
			t.Fatalf("discardStage destroyed committed shard for rank %d: %v", r, err)
		}
	}

	// An uncommitted stage (shards written, no manifest — what a skipped
	// ENOSPC commit leaves behind) is garbage and must be reclaimed.
	meta := testMeta(4)
	for r := 0; r < meta.Ranks; r++ {
		if _, err := writeShard(w, meta, r, testAmps(r, 1<<meta.L)); err != nil {
			t.Fatal(err)
		}
	}
	w.discardStage(4)
	strays, err := filepath.Glob(filepath.Join(dir, "shard-000004-r*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(strays) != 0 {
		t.Errorf("uncommitted stage-4 shards survived discardStage: %v", strays)
	}
}

// TestTornWriteNeverYieldsCorruptRestore sweeps a torn write over every
// write-family op of a checkpoint's commit protocol and demands the
// invariant the CRC layer exists for: whatever the tear hits — shard
// header, payload, manifest temp — FindRestorable either falls back to
// the intact older snapshot or (when the tear landed somewhere harmless
// like a CreateTemp, which tears nothing) restores a fully verified newer
// one. It must never return an error or a manifest whose shards fail
// verification, and at least one tear position must actually force the
// fallback.
func TestTornWriteNeverYieldsCorruptRestore(t *testing.T) {
	// Learn how many write-family ops one committed checkpoint costs.
	probe := chaos.NewFS(chaos.DiskFaults{}, nil)
	writeCheckpoint(t, onFS(probe, t.TempDir()), 2)
	writeOps := int(probe.Stats().WriteOps)
	if writeOps == 0 {
		t.Fatal("probe counted no write ops — the seam is not wired")
	}

	fellBack := 0
	for k := 1; k <= writeOps; k++ {
		dir := t.TempDir()
		writeCheckpoint(t, osWriter(dir), 1)
		writeCheckpoint(t, onFS(chaos.NewFS(chaos.DiskFaults{TornWriteAt: k}, nil), dir), 2)

		m, err := FindRestorable(dir, testMeta(0))
		if err != nil {
			t.Fatalf("tear at write op %d left no restorable checkpoint: %v", k, err)
		}
		switch m.NextStage {
		case 1:
			fellBack++
		case 2:
			for r := 0; r < m.Ranks; r++ {
				if err := VerifyShard(dir, m, r); err != nil {
					t.Fatalf("tear at write op %d: stage 2 chosen but shard %d corrupt: %v", k, r, err)
				}
			}
		default:
			t.Fatalf("tear at write op %d restored unexpected stage %d", k, m.NextStage)
		}
	}
	if fellBack == 0 {
		t.Error("no tear position forced a fallback — the sweep exercised nothing")
	}
}

// TestCommitENOSPCSurfacesAsNoSpace pins the error classification the
// engines' degradation policy keys on: an injected ENOSPC anywhere in the
// shard/commit path must satisfy fsio.IsNoSpace after all the wrapping.
func TestCommitENOSPCSurfacesAsNoSpace(t *testing.T) {
	full := onFS(chaos.NewFS(chaos.DiskFaults{NoSpaceAt: 1, NoSpaceRun: 1 << 20}, nil), t.TempDir())
	meta := testMeta(1)
	_, err := writeShard(full, meta, 0, testAmps(0, 1<<meta.L))
	if err == nil {
		t.Fatal("shard write succeeded on a full disk")
	}
	if !fsio.IsNoSpace(err) {
		t.Errorf("ENOSPC lost its classification through wrapping: %v", err)
	}
}
