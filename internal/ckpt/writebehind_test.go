package ckpt

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"qusim/internal/fsio"
)

// hintFS is the real file system whose files offer fsio.WriteBehind and log,
// in one sequence, every positional write that lands, every write-behind
// hint, every Sync and every rename; each hint returns hintErr.
type hintFS struct {
	fsio.OS
	hintErr error

	mu  sync.Mutex
	log []string
}

func (fs *hintFS) add(format string, args ...any) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.log = append(fs.log, fmt.Sprintf(format, args...))
}

func (fs *hintFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	f, err := fs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &hintFile{File: f, fs: fs}, nil
}

func (fs *hintFS) Rename(oldpath, newpath string) error {
	fs.add("rename %s", oldpath)
	return fs.OS.Rename(oldpath, newpath)
}

type hintFile struct {
	fsio.File
	fs *hintFS
}

func (f *hintFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if err == nil {
		f.fs.add("write %s %d %d", f.Name(), off, len(p))
	}
	return n, err
}

func (f *hintFile) StartWriteback(off, n int64) error {
	f.fs.add("hint %s %d %d", f.Name(), off, n)
	return f.fs.hintErr
}

func (f *hintFile) Sync() error {
	f.fs.add("sync %s", f.Name())
	return f.File.Sync()
}

// bigMeta is a 2-rank run whose shards are several write pieces long.
func bigMeta() Meta { return Meta{PlanHash: "abc123", N: 18, L: 17, Ranks: 2, NextStage: 1} }

// teeBig tees bigMeta's shards into snap in halves of the writer's pieces
// and commits it.
func teeBig(t *testing.T, snap *Snapshot) {
	t.Helper()
	if err := teeRanks(snap, bigMeta(), pieceAmps/2); err != nil {
		t.Fatal(err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindHintsWholePages: each piece a shard writer lands is
// followed by the hint of the whole pages it completed, starting where the
// last hint ended — so every page is hinted once, in order, and the page a
// piece leaves partly filled waits for the next hint — and the header
// alone, the trailer and the last partial page of the payload go to Close's
// fsync. Sync still runs once per shard, after its last write and before
// its rename.
func TestWriteBehindHintsWholePages(t *testing.T) {
	fs := &hintFS{}
	meta := bigMeta()
	teeBig(t, NewWriter(&Policy{Dir: t.TempDir(), FS: fs}, meta, nil).Snapshot(meta.NextStage))
	type shard struct {
		writes, hints, syncs int
		end, hinted          int64 // bytes written, bytes hinted
		due                  int64 // the hint the last write owes: up to its last whole page
		renamed              bool
	}
	shards := map[string]*shard{}
	for _, e := range fs.log {
		var op, name string
		var off, n int64
		fmt.Sscanf(e, "%s %s %d %d", &op, &name, &off, &n)
		s := shards[name]
		if s == nil {
			s = &shard{}
			shards[name] = s
		}
		if s.renamed {
			t.Fatalf("%q after the file was renamed", e)
		}
		if op != "hint" && s.due > s.hinted {
			t.Errorf("%s: %q before the hint of [%d, %d)", name, e, s.hinted, s.due)
		}
		switch op {
		case "write":
			if s.syncs > 0 {
				t.Errorf("%s: write after Sync", name)
			}
			if off != s.end {
				t.Errorf("%s: write at %d after %d bytes", name, off, s.end)
			}
			s.writes++
			s.end = off + n
			s.due = s.end &^ (pageBytes - 1)
		case "hint":
			if off != s.hinted || off+n != s.due || n <= 0 {
				t.Errorf("%s: hint of [%d, %d), want [%d, %d)", name, off, off+n, s.hinted, s.due)
			}
			s.hints++
			s.hinted = off + n
		case "sync":
			if trailer := s.end - 4; s.writes > 0 && s.hinted != trailer&^(pageBytes-1) {
				t.Errorf("%s: Sync with %d bytes hinted, want the whole pages of %d", name, s.hinted, trailer)
			}
			s.syncs++
		case "rename":
			if s.syncs != 1 {
				t.Errorf("%s renamed after %d Syncs, want 1", name, s.syncs)
			}
			s.renamed = true
		}
	}
	// Per shard: the header, 2^L/(pieceAmps/2) payload pieces, each of
	// which completes a page and is hinted, and the trailer.
	var nshards int
	for name, s := range shards {
		if s.writes == 0 {
			continue // the manifest: written sequentially, never hinted
		}
		nshards++
		if pieces := (1 << meta.L) / (pieceAmps / 2); s.hints != pieces || s.writes != pieces+2 || !s.renamed {
			t.Errorf("%s: %d writes, %d hints, renamed %v; want %d hinted pieces between the header and the trailer", name, s.writes, s.hints, s.renamed, pieces)
		}
	}
	if nshards != meta.Ranks {
		t.Errorf("%d shard files written, want %d", nshards, meta.Ranks)
	}
}

// TestWriteBehindErrorChangesNothing: a hint that fails — even with the
// disk-full error a droppable snapshot would drop its boundary for — is
// ignored: the snapshot commits, and its files are the bytes of a snapshot
// written without hints.
func TestWriteBehindErrorChangesNothing(t *testing.T) {
	meta := bigMeta()
	hinted, plain := t.TempDir(), t.TempDir()
	w := NewWriter(&Policy{Dir: hinted, FS: &hintFS{hintErr: fsio.ErrNoSpace}}, meta, nil)
	teeBig(t, w.At(meta.NextStage, 0, meta.NextStage+1))
	if written, skipped := w.Counts(); written != 1 || skipped != 0 {
		t.Fatalf("failing hints: %d snapshots committed, %d dropped; want 1 and 0", written, skipped)
	}
	teeBig(t, NewWriter(&Policy{Dir: plain}, meta, nil).Snapshot(meta.NextStage))
	a, b := dirFiles(t, hinted), dirFiles(t, plain)
	if len(a) != meta.Ranks+1 || len(a) != len(b) {
		t.Fatalf("%d and %d files, want %d shards and a manifest each", len(a), len(b), meta.Ranks)
	}
	for name, blob := range a {
		if !bytes.Equal(blob, b[name]) {
			t.Errorf("%s differs from the snapshot written without hints", name)
		}
	}
}
