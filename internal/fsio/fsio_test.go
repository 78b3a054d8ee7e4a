package fsio

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
)

// TestOSRoundTrip drives the full interface surface through the OS
// implementation: temp create, positional and sequential I/O, sync,
// rename, read-back, remove.
func TestOSRoundTrip(t *testing.T) {
	var fs FS = OS{}
	dir := filepath.Join(t.TempDir(), "sub")
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	f, err := fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := f.WriteAt([]byte("world"), 6); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	tmp := f.Name()
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	final := filepath.Join(dir, "final.txt")
	if err := fs.Rename(tmp, final); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	blob, err := fs.ReadFile(final)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(blob) != "hello world" {
		t.Fatalf("read back %q", blob)
	}
	g, err := fs.Open(final)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := g.ReadAt(buf, 6); err != nil || string(buf) != "world" {
		t.Fatalf("ReadAt: %q, %v", buf, err)
	}
	g.Close()
	if err := fs.Remove(final); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("file survived Remove: %v", err)
	}
}

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		err       error
		noSpace   bool
		transient bool
	}{
		{ErrNoSpace, true, false},
		{fmt.Errorf("wrapped: %w", ErrNoSpace), true, false},
		{syscall.ENOSPC, true, false},
		{&os.PathError{Op: "write", Path: "x", Err: syscall.ENOSPC}, true, false},
		{ErrTransient, false, true},
		{fmt.Errorf("wrapped: %w", ErrTransient), false, true},
		{syscall.EINTR, false, true},
		{syscall.EAGAIN, false, true},
		{os.ErrNotExist, false, false},
		{nil, false, false},
	}
	for _, c := range cases {
		if got := IsNoSpace(c.err); got != c.noSpace {
			t.Errorf("IsNoSpace(%v) = %v, want %v", c.err, got, c.noSpace)
		}
		if got := IsTransient(c.err); got != c.transient {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.transient)
		}
	}
}

// TestOSFileWriteBehind: a file OS creates offers WriteBehind on Linux (but
// 32-bit arm) and nowhere else; the hint succeeds on a written range and
// leaves its bytes as they were.
func TestOSFileWriteBehind(t *testing.T) {
	f, err := OS{}.CreateTemp(t.TempDir(), "wb-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blob := []byte("write behind")
	if _, err := f.WriteAt(blob, 4096); err != nil {
		t.Fatal(err)
	}
	wb, ok := f.(WriteBehind)
	if want := runtime.GOOS == "linux" && runtime.GOARCH != "arm"; ok != want {
		t.Fatalf("OS file offers WriteBehind: %v, want %v", ok, want)
	}
	if ok {
		if err := wb.StartWriteback(4096, int64(len(blob))); err != nil {
			t.Fatalf("StartWriteback: %v", err)
		}
	}
	StartWriteback(f, 0, 4096+int64(len(blob)))
	got := make([]byte, len(blob))
	if _, err := f.ReadAt(got, 4096); err != nil || string(got) != string(blob) {
		t.Fatalf("read back %q, %v", got, err)
	}
}
