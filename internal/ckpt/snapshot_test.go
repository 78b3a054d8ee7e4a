package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"qusim/internal/chaos"
	"qusim/internal/fsio"
	"qusim/internal/kernels"
	"qusim/internal/telemetry"
)

// teeRanks tees every rank's testAmps into snap from a goroutine per rank,
// in pieces of piece amplitudes, and returns the first error.
func teeRanks(snap *Snapshot, meta Meta, piece int) error {
	errs := make([]error, meta.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < meta.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			amps := testAmps(r, 1<<meta.L)
			for off := 0; off < len(amps) && errs[r] == nil; off += piece {
				errs[r] = snap.Tee(r, kernels.AmpBytes(amps[off:off+piece]))
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dirFiles returns every file of dir by name, with its bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestSnapshotTeedInPiecesEqualsWholeShards: shards teed chunk by chunk, the
// ranks at once, are the bytes of shards teed in one piece, and restore.
func TestSnapshotTeedInPiecesEqualsWholeShards(t *testing.T) {
	meta := testMeta(3)
	whole, pieces := t.TempDir(), t.TempDir()
	for _, c := range []struct {
		dir   string
		piece int
	}{{whole, 1 << meta.L}, {pieces, 4}} {
		snap := osWriter(c.dir).Snapshot(meta.NextStage)
		if err := teeRanks(snap, meta, c.piece); err != nil {
			t.Fatal(err)
		}
		if err := snap.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := dirFiles(t, whole), dirFiles(t, pieces)
	if len(a) != meta.Ranks+1 || len(a) != len(b) {
		t.Fatalf("%d and %d files, want %d shards and a manifest each", len(a), len(b), meta.Ranks)
	}
	for name, blob := range a {
		if !bytes.Equal(blob, b[name]) {
			t.Errorf("%s differs between whole and piecewise tees", name)
		}
	}
	m, err := FindRestorable(pieces, meta)
	if err != nil || m == nil {
		t.Fatalf("FindRestorable = %v, %v", m, err)
	}
	got := make([]complex128, 1<<meta.L)
	for r := 0; r < meta.Ranks; r++ {
		if err := osWriter(pieces).StreamShard(m, r, kernels.AmpBytes(got), nil); err != nil || !slices.Equal(got, testAmps(r, len(got))) {
			t.Fatalf("rank %d restored wrong (%v)", r, err)
		}
	}
}

// TestWriterSharesOneSnapshotPerBoundary: every rank asking a Writer for a
// boundary gets the same Snapshot, the policy decides which boundaries are
// asked for, and one commit is counted once however many ranks read it.
func TestWriterSharesOneSnapshotPerBoundary(t *testing.T) {
	if NewWriter(nil, testMeta(0), nil).At(1, 0, 4) != nil {
		t.Fatal("a nil policy's writer handed out a snapshot")
	}
	meta := testMeta(0)
	w := NewWriter(&Policy{Dir: t.TempDir(), EveryStages: 2}, meta, nil)
	for _, next := range []int{0, 1, 3, 4} {
		if w.At(next, 0, 4) != nil {
			t.Errorf("boundary %d of a 4-stage run is no snapshot at every second stage", next)
		}
	}
	snaps := make([]*Snapshot, meta.Ranks)
	var wg sync.WaitGroup
	for r := range snaps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			snaps[r] = w.At(2, 0, 4)
		}(r)
	}
	wg.Wait()
	for r, s := range snaps {
		if s == nil || s != snaps[0] {
			t.Fatalf("rank %d got snapshot %p, rank 0 %p", r, s, snaps[0])
		}
	}
	if err := teeRanks(snaps[0], meta, 1<<meta.L); err != nil {
		t.Fatal(err)
	}
	for range snaps {
		if err := snaps[0].Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if written, skipped := w.Counts(); written != 1 || skipped != 0 {
		t.Errorf("counts %d written, %d skipped; want 1 and 0", written, skipped)
	}
	if m, err := FindRestorable(w.pol.Dir, meta); err != nil || m == nil || m.NextStage != 2 {
		t.Errorf("FindRestorable = %+v, %v; want boundary 2", m, err)
	}
}

// TestSnapshotDropsOnPersistentENOSPC: a disk that stays full past the
// prune retry drops a Writer's boundary — every rank's tee and the commit
// return nil, no file of it stays behind, the drop is counted, also when
// the stage fails and aborts the snapshot instead of committing it — while
// a snapshot from Writer.Snapshot returns the ENOSPC.
func TestSnapshotDropsOnPersistentENOSPC(t *testing.T) {
	meta := testMeta(0)
	for _, c := range []struct {
		at    int
		abort bool
	}{{1, false}, {3, false}, {6, false}, {6, true}} {
		at, dir := c.at, t.TempDir()
		tel := telemetry.New()
		w := NewWriter(&Policy{Dir: dir, FS: chaos.NewFS(chaos.DiskFaults{NoSpaceAt: at, NoSpaceRun: 1 << 20}, nil)}, meta, tel)
		snap := w.At(1, 0, 3)
		err := teeRanks(snap, meta, 4)
		switch {
		case err != nil:
		case c.abort:
			snap.Abort()
		default:
			err = snap.Commit()
		}
		if err != nil {
			t.Fatalf("write op %d: a full disk failed the snapshot: %v", at, err)
		}
		if written, skipped := w.Counts(); written != 0 || skipped != 1 || tel.Counter("ckpt.skipped").Value() != 1 {
			t.Errorf("write op %d: %d written, %d skipped, ckpt.skipped %d; want 0, 1, 1",
				at, written, skipped, tel.Counter("ckpt.skipped").Value())
		}
		if files := dirFiles(t, dir); len(files) != 0 {
			t.Errorf("write op %d: the dropped boundary left %d files", at, len(files))
		}
	}

	full := onFS(chaos.NewFS(chaos.DiskFaults{NoSpaceAt: 1, NoSpaceRun: 1 << 20}, nil), t.TempDir())
	if err := full.Snapshot(meta.NextStage).Tee(0, kernels.AmpBytes(testAmps(0, 1<<meta.L))); !fsio.IsNoSpace(err) {
		t.Errorf("a stand-alone snapshot on a full disk returned %v, want ENOSPC", err)
	}
}
