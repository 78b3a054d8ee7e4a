package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qusim/internal/fsio"
)

// write writes blob through an injecting FS as one CreateTemp + Write +
// Sync + Rename sequence (op indices 1..4) and returns the first error.
func write(t *testing.T, fs *FS, dir, name string, blob []byte) error {
	t.Helper()
	f, err := fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	tmp := f.Name()
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, filepath.Join(dir, name))
}

func TestNoSpaceWindow(t *testing.T) {
	dir := t.TempDir()
	// Ops: CreateTemp=1, Write=2, Sync=3, Rename=4. Fail exactly the Write.
	fs := NewFS(DiskFaults{NoSpaceAt: 2}, nil)
	err := write(t, fs, dir, "a", []byte("payload"))
	if !fsio.IsNoSpace(err) {
		t.Fatalf("want ENOSPC-class error, got %v", err)
	}
	st := fs.Stats()
	if st.NoSpace != 1 {
		t.Fatalf("NoSpace stat = %d, want 1", st.NoSpace)
	}
	// The window has passed: the same sequence now succeeds.
	if err := write(t, fs, dir, "a", []byte("payload")); err != nil {
		t.Fatalf("post-window write failed: %v", err)
	}
}

func TestTornWriteSilent(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(DiskFaults{TornWriteAt: 1}, nil) // the first Write op, after CreateTemp
	if err := write(t, fs, dir, "a", []byte("0123456789")); err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	if n := fs.Stats().TornWrites; n != 1 {
		t.Fatalf("TornWrites stat = %d, want 1", n)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(blob) != "01234" {
		t.Fatalf("torn file holds %q, want front half %q", blob, "01234")
	}
}

func TestReadErrWindowTransient(t *testing.T) {
	dir := t.TempDir()
	clean := NewFS(DiskFaults{}, nil)
	if err := write(t, clean, dir, "a", []byte("payload")); err != nil {
		t.Fatalf("setup: %v", err)
	}
	fs := NewFS(DiskFaults{ReadErrAt: 1, ReadErrRun: 2}, nil)
	if _, err := fs.ReadFile(filepath.Join(dir, "a")); !fsio.IsTransient(err) {
		t.Fatalf("read op 1: want transient error, got %v", err)
	}
	if _, err := fs.Open(filepath.Join(dir, "a")); !fsio.IsTransient(err) {
		t.Fatalf("read op 2: want transient error, got %v", err)
	}
	f, err := fs.Open(filepath.Join(dir, "a")) // op 3: window passed
	if err != nil {
		t.Fatalf("read op 3: %v", err)
	}
	buf := make([]byte, 7)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "payload" {
		t.Fatalf("ReadAt after window: %q, %v", buf, err)
	}
	f.Close()
	if n := fs.Stats().ReadErrors; n != 2 {
		t.Fatalf("ReadErrors stat = %d, want 2", n)
	}
}

func TestSlowIOCounted(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(DiskFaults{SlowEvery: 2, SlowDelay: time.Microsecond}, nil)
	if err := write(t, fs, dir, "a", []byte("payload")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if n := fs.Stats().Slowdowns; n != 2 { // write ops 2 and 4
		t.Fatalf("Slowdowns stat = %d, want 2", n)
	}
}

// TestInjectionWrapsNotOS: an injected failure must never reach the real
// filesystem — the op that failed left no trace.
func TestInjectionWrapsNotOS(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(DiskFaults{NoSpaceAt: 1}, nil) // CreateTemp fails
	if _, err := fs.CreateTemp(dir, ".tmp-*"); !fsio.IsNoSpace(err) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("injected CreateTemp failure left %d entries on disk", len(ents))
	}
}

func TestComposeDeterministic(t *testing.T) {
	a := Compose(7, 3, ComposeOptions{})
	b := Compose(7, 3, ComposeOptions{})
	if !reflect.DeepEqual(a.Armed, b.Armed) || !reflect.DeepEqual(a.Disk, b.Disk) {
		t.Fatalf("same (seed, run) produced different schedules:\n%+v\n%+v", a, b)
	}
	if (a.MPI == nil) != (b.MPI == nil) {
		t.Fatalf("MPI arming differs")
	}
	if a.MPI != nil && b.MPI != nil {
		if (a.MPI.Crash == nil) != (b.MPI.Crash == nil) ||
			(a.MPI.Stall == nil) != (b.MPI.Stall == nil) ||
			(a.MPI.Corrupt == nil) != (b.MPI.Corrupt == nil) {
			t.Fatalf("MPI fault arming differs")
		}
	}
	if c := Compose(8, 3, ComposeOptions{}); reflect.DeepEqual(a.Disk, c.Disk) && len(a.Armed) == len(c.Armed) {
		// Not strictly impossible, but the primary is the same and all
		// draws matching would be suspicious; only fail if identical.
		same := true
		for i := range a.Armed {
			if a.Armed[i] != c.Armed[i] {
				same = false
				break
			}
		}
		if same && a.MPI != nil && c.MPI != nil && a.MPI.Seed == c.MPI.Seed {
			t.Fatalf("different seeds produced identical schedules")
		}
	}
}

// TestComposeRotationCoversAllClasses: six consecutive runs arm all six
// acceptance classes as primaries, whatever the seed.
func TestComposeRotationCoversAllClasses(t *testing.T) {
	seen := map[Class]bool{}
	for r := 0; r < 6; r++ {
		s := Compose(42, r, ComposeOptions{})
		if len(s.Armed) == 0 {
			t.Fatalf("run %d armed nothing", r)
		}
		seen[s.Armed[0]] = true
		// The primary must actually be armed on the right side.
		switch s.Armed[0] {
		case Crash:
			if s.MPI == nil || s.MPI.Crash == nil {
				t.Fatalf("run %d: crash primary but no crash fault", r)
			}
		case Corrupt:
			if s.MPI == nil || s.MPI.Corrupt == nil {
				t.Fatalf("run %d: corrupt primary but no corrupt fault", r)
			}
		case Stall:
			if s.MPI == nil || s.MPI.Stall == nil {
				t.Fatalf("run %d: stall primary but no stall fault", r)
			}
		case NoSpace:
			if s.Disk.NoSpaceAt == 0 {
				t.Fatalf("run %d: enospc primary but no trigger", r)
			}
		case TornWrite:
			if s.Disk.TornWriteAt == 0 {
				t.Fatalf("run %d: torn primary but no trigger", r)
			}
		case ReadError:
			if s.Disk.ReadErrAt == 0 {
				t.Fatalf("run %d: read-error primary but no trigger", r)
			}
		}
	}
	for _, c := range []Class{Crash, Corrupt, Stall, NoSpace, TornWrite, ReadError} {
		if !seen[c] {
			t.Errorf("class %v never primary in a rotation cycle", c)
		}
	}
}

// failRemoveFS proves Remove passes through untouched (pruning is never
// a chaos target — the injector only degrades the data path).
type failRemoveFS struct {
	fsio.OS
}

var errRemove = errors.New("remove denied")

func (failRemoveFS) Remove(string) error { return errRemove }

func TestRemovePassesThrough(t *testing.T) {
	fs := NewFS(DiskFaults{NoSpaceAt: 99}, failRemoveFS{})
	if err := fs.Remove("x"); !errors.Is(err, errRemove) {
		t.Fatalf("Remove did not delegate to inner FS: %v", err)
	}
}
