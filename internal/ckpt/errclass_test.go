package ckpt

// Regression tests for the errwrap invariant (qlint's errwrap analyzer):
// ckpt used to flatten underlying fsio errors with %v while wrapping
// ErrInvalid, so a transient disk fault during restore was misclassified
// as a corrupt checkpoint — the recovery path would discard a perfectly
// good checkpoint instead of retrying the read. Since the %v→%w fix both
// classifications survive the wrap; these tests pin that.

import (
	"errors"
	"fmt"
	"testing"

	"qusim/internal/fsio"
)

// transientFS fails every read entry point with a transient fault, the
// way a chaos-injected stall or EINTR surfaces through the seam.
type transientFS struct {
	fsio.OS
}

func (transientFS) ReadFile(name string) ([]byte, error) {
	return nil, fmt.Errorf("injected read: %w", fsio.ErrTransient)
}

func (transientFS) Open(name string) (fsio.File, error) {
	return nil, fmt.Errorf("injected open: %w", fsio.ErrTransient)
}

// transientWriter returns a writer whose file system is transientFS.
func transientWriter(dir string) *Writer {
	return NewWriter(&Policy{Dir: dir, FS: transientFS{}}, Meta{}, nil)
}

func TestLoadManifestKeepsTransientClassification(t *testing.T) {
	_, err := transientWriter("").loadManifest("ckpt-000001.json")
	if err == nil {
		t.Fatal("loadManifest succeeded against a failing FS")
	}
	if !errors.Is(err, ErrInvalid) {
		t.Errorf("error lost its ErrInvalid wrap: %v", err)
	}
	if !fsio.IsTransient(err) {
		t.Errorf("transient read fault lost its classification through the ErrInvalid wrap: %v", err)
	}
}

func TestOpenShardKeepsTransientClassification(t *testing.T) {
	m := &Manifest{Shards: []ShardInfo{{Rank: 0, File: "shard-0"}}}
	err := transientWriter(t.TempDir()).verifyShard(m, 0)
	if err == nil {
		t.Fatal("opening the shard succeeded against a failing FS")
	}
	if !errors.Is(err, ErrInvalid) {
		t.Errorf("error lost its ErrInvalid wrap: %v", err)
	}
	if !fsio.IsTransient(err) {
		t.Errorf("transient open fault lost its classification through the ErrInvalid wrap: %v", err)
	}
}
