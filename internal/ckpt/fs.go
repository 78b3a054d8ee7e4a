package ckpt

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"time"

	"qusim/internal/fsio"
)

// The package's file operations go through the fsio.FS of the run's Policy
// so the chaos layer can degrade the durability path (ENOSPC, torn writes,
// transient read errors) without touching this code. Production runs on
// fsio.OS; qlint's fsops analyzer flags any direct os call that would
// bypass the seam.

// MkdirAll creates the checkpoint directory if it is missing.
func (w *Writer) MkdirAll() error { return w.fs.MkdirAll(w.pol.Dir) }

// pruneLogOnce rate-limits the prune-failure log line: the counter keeps
// the full count, the log keeps the first concrete path+error for a human.
var pruneLogOnce sync.Once

// removeCounted removes path, counting and logging (once) a failure
// instead of dropping it: a prune that cannot delete is not an error for
// the run — the checkpoint set just stays larger than Keep — but an
// operator watching ckpt.prune_failures can see the directory filling up.
func (w *Writer) removeCounted(path string) bool {
	err := w.fs.Remove(path)
	if err == nil {
		return true
	}
	w.tel.Counter("ckpt.prune_failures").Inc()
	pruneLogOnce.Do(func() {
		log.Printf("ckpt: pruning %s failed: %v (further failures count in ckpt.prune_failures only)", path, err)
	})
	return false
}

// retryNoSpace runs step and, if the disk had no room for it, runs it once
// more after pruneOldest freed the oldest checkpoint: the one disk-full
// retry of each write — creating a shard, appending to it, committing a
// manifest. An ENOSPC that persists is returned, and what it costs the run
// is the engine's decision.
func (w *Writer) retryNoSpace(step func() error) error {
	err := step()
	if fsio.IsNoSpace(err) && w.pruneOldest() {
		w.tel.Counter("ckpt.enospc_pruned").Inc()
		err = step()
	}
	return err
}

// pruneOldest removes the oldest committed checkpoint when more than one
// exists — the space retryNoSpace reclaims before it repeats a write — and
// reports whether it did. The newest checkpoint (and any shards it shares
// with the victim) is never touched, so recoverability is preserved; no
// temp file is swept, for it may be another rank's mid-protocol write, and
// ranks pruning at once only race on removals, which are tolerated and
// counted.
func (w *Writer) pruneOldest() bool {
	valid, _ := w.manifests()
	return len(valid) > 1 && w.prune(len(valid)-1) > 0
}

// discardStage removes the shard files of an UNCOMMITTED checkpoint at
// the given stage cursor — the garbage a skipped ENOSPC commit leaves
// behind. If a manifest for the stage exists (an earlier process
// committed it and this run re-executed the stage), the shards are live
// checkpoint data and nothing is removed. Best-effort space reclamation;
// failures count like prune failures.
func (w *Writer) discardStage(stage int) {
	if _, err := w.fs.ReadFile(filepath.Join(w.pol.Dir, manifestName(stage))); err == nil {
		return
	}
	paths, _ := filepath.Glob(filepath.Join(w.pol.Dir, fmt.Sprintf("shard-%06d-r*.ckpt", stage)))
	for _, p := range paths {
		w.removeCounted(p)
	}
}

// telShard records in the writer's telemetry one completed shard write or
// read (op "write" or "read": a restore or a verification walk — a
// FindRestorable streams every shard it audits) of n payload bytes that
// took the time since t0: byte and shard counters plus a duration
// histogram.
func (w *Writer) telShard(op string, t0 time.Time, n int) {
	if w.tel == nil {
		return
	}
	w.tel.Counter("ckpt.shard_" + op + "s").Inc()
	w.tel.Counter("ckpt.shard_" + op + "_bytes").Add(int64(n))
	w.tel.Histogram("ckpt.shard_" + op + "_ns").ObserveSince(t0)
}
