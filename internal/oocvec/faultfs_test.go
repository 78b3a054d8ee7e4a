package oocvec

import (
	"sync/atomic"

	"qusim/internal/fsio"
)

// faultFS is the real file system whose state file consults fail before
// every positional read or write — the failpoints of this package's
// error-path tests, injected through the same fsio.FS seam production uses.
// fail sees the byte offset and length of the access, so a test can pick a
// chunk (off / chunk bytes), a run of a chunk split by the layout (n < chunk
// bytes) or simply the k-th call; it may be called from the pipeline's
// reader and writeback goroutines at once. It also counts the calls that
// create, rename or remove a file.
type faultFS struct {
	fsio.OS
	fail                      atomic.Pointer[func(write bool, off int64, n int) error]
	creates, renames, removes atomic.Int32
}

// arm installs fail (nil disarms).
func (fs *faultFS) arm(fail func(write bool, off int64, n int) error) {
	if fail == nil {
		fs.fail.Store(nil)
		return
	}
	fs.fail.Store(&fail)
}

func (fs *faultFS) check(write bool, off int64, n int) error {
	if fail := fs.fail.Load(); fail != nil {
		return (*fail)(write, off, n)
	}
	return nil
}

func (fs *faultFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	fs.creates.Add(1)
	f, err := fs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, fs: fs}, nil
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	fs.renames.Add(1)
	return fs.OS.Rename(oldpath, newpath)
}

func (fs *faultFS) Remove(name string) error {
	fs.removes.Add(1)
	return fs.OS.Remove(name)
}

type faultFile struct {
	fsio.File
	fs *faultFS
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(false, off, len(p)); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.check(true, off, len(p)); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}
