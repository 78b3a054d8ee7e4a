package ckpt

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"

	"qusim/internal/fsio"
)

// The package's file operations go through an injectable fsio.FS so the
// chaos layer can degrade the durability path (ENOSPC, torn writes,
// transient read errors) without touching this code. Production runs on
// fsio.OS; qlint's fsops analyzer flags any direct os call that would
// bypass the seam.

// fsHook holds the installed FS. Process-global like the telemetry hook,
// for the same reason: checkpoint I/O happens from rank goroutines and free
// functions.
var fsHook fsio.Hook

func fsys() fsio.FS { return fsHook.FS() }

// SetFS installs the file-ops implementation the package runs on (nil
// restores the real OS) and returns the previous one, so tests can
// `old := ckpt.SetFS(...); t.Cleanup(func() { ckpt.SetFS(old) })`.
func SetFS(f fsio.FS) fsio.FS { return fsHook.Set(f) }

// pruneLogOnce rate-limits the prune-failure log line: the counter keeps
// the full count, the log keeps the first concrete path+error for a human.
var pruneLogOnce sync.Once

// removeCounted removes path, counting and logging (once) a failure
// instead of dropping it: a prune that cannot delete is not an error for
// the run — the checkpoint set just stays larger than Keep — but an
// operator watching ckpt.prune_failures can see the directory filling up.
func removeCounted(path string) bool {
	err := fsys().Remove(path)
	if err == nil {
		return true
	}
	tel.Load().Counter("ckpt.prune_failures").Inc()
	pruneLogOnce.Do(func() {
		log.Printf("ckpt: pruning %s failed: %v (further failures count in ckpt.prune_failures only)", path, err)
	})
	return false
}

// retryNoSpace runs step and, if the disk had no room for it, runs it once
// more after pruneOldest freed the oldest checkpoint in dir: the one
// disk-full retry of each write — creating a shard, appending to it,
// committing a manifest. An ENOSPC that persists is returned, and what it
// costs the run is the engine's decision.
func retryNoSpace(dir string, step func() error) error {
	err := step()
	if fsio.IsNoSpace(err) && pruneOldest(dir) {
		tel.Load().Counter("ckpt.enospc_pruned").Inc()
		err = step()
	}
	return err
}

// pruneOldest removes the oldest committed checkpoint in dir when more
// than one exists — the space retryNoSpace reclaims before it repeats a
// write — and reports whether it did. The newest checkpoint (and any
// shards it shares with the victim) is never touched, so recoverability
// is preserved; no temp file is swept, for it may be another rank's
// mid-protocol write, and ranks pruning at once only race on removals,
// which are tolerated and counted.
func pruneOldest(dir string) bool {
	valid, _ := manifests(dir)
	return len(valid) > 1 && prune(dir, len(valid)-1) > 0
}

// discardStage removes the shard files of an UNCOMMITTED checkpoint at
// the given stage cursor — the garbage a skipped ENOSPC commit leaves
// behind. If a manifest for the stage exists (an earlier process
// committed it and this run re-executed the stage), the shards are live
// checkpoint data and nothing is removed. Best-effort space reclamation;
// failures count like prune failures.
func discardStage(dir string, stage int) {
	if _, err := fsys().ReadFile(filepath.Join(dir, manifestName(stage))); err == nil {
		return
	}
	paths, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%06d-r*.ckpt", stage)))
	for _, p := range paths {
		removeCounted(p)
	}
}
