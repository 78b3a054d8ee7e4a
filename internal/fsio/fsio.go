// Package fsio is the narrow file-ops seam between the durability layers
// (internal/ckpt, internal/oocvec) and the operating system. Production
// code runs on the OS implementation; the chaos layer (internal/chaos)
// substitutes an injecting implementation that fails or degrades
// individual operations deterministically — ENOSPC, torn writes,
// transient read errors, slow I/O — without touching the code under test.
//
// The interface is deliberately small: only the calls the snapshot and
// out-of-core write/read paths actually make. Read-only directory walks
// (filepath.Glob) stay on the standard library — listing a directory is
// not a failure mode the fault model covers.
//
// The package also owns the error taxonomy the graceful-degradation
// policies dispatch on: IsNoSpace (degrade — prune or skip, never abort)
// and IsTransient (retry with bounded backoff before surfacing).
package fsio

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// File is the subset of *os.File the snapshot and chunk I/O paths use.
// Positional reads/writes must be safe for concurrent use on distinct
// offsets, matching *os.File semantics.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Name returns the path the file was opened or created with.
	Name() string
	// Sync flushes the file to stable storage.
	Sync() error
}

// WriteBehind is the one optional capability a File may add: starting the
// writeback of n bytes at off, already written, without waiting for the
// disk. It is advisory — a File without it, or an error from it, leaves
// every byte where WriteAt put it — so a writer that hints each piece it
// lands leaves its closing Sync only the tail to wait for. Durability is
// still Sync's alone.
type WriteBehind interface {
	StartWriteback(off, n int64) error
}

// StartWriteback hints f to start writing back the range, when f offers
// WriteBehind, and does nothing otherwise; the hint's error is dropped.
func StartWriteback(f File, off, n int64) {
	if wb, ok := f.(WriteBehind); ok {
		_ = wb.StartWriteback(off, n)
	}
}

// FS is the injectable file-operation set. All paths are interpreted as
// the os package would.
type FS interface {
	MkdirAll(dir string) error
	// CreateTemp creates a new temp file in dir (pattern as os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory so a completed rename survives power loss.
	// Best-effort: some platforms/filesystems reject directory fsync.
	SyncDir(dir string) error
}

// OS is the production FS: direct delegation to package os. The files it
// creates offer WriteBehind where the OS has the call (writeback_linux.go).
type OS struct{}

func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// osFile is a file OS created: an *os.File, plus WriteBehind on Linux.
type osFile struct{ *os.File }

func (OS) Open(name string) (File, error) { return os.Open(name) }

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrNoSpace is the injectable stand-in for a full filesystem. Injected
// faults wrap it; real kernels return syscall.ENOSPC — IsNoSpace matches
// both.
var ErrNoSpace = errors.New("fsio: no space left on device")

// IsNoSpace reports whether err is a filesystem-full condition (injected
// or real). The degradation policy for it is "reclaim or skip, never
// abort": checkpointing is an optimization for recovery, not a
// correctness requirement of a healthy run.
func IsNoSpace(err error) bool {
	return errors.Is(err, ErrNoSpace) || errors.Is(err, syscall.ENOSPC)
}

// ErrTransient is the injectable stand-in for a transient I/O error — the
// class a bounded retry is expected to clear (interrupted syscall,
// momentary device hiccup). Real kernels surface EINTR/EAGAIN.
var ErrTransient = errors.New("fsio: transient i/o error")

// IsTransient reports whether err is worth retrying with bounded backoff
// before surfacing.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}
