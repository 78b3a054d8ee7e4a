//go:build !arm

// 32-bit arm's syscall package has no SyncFileRange: its files go without
// WriteBehind, like those of every other OS.

package fsio

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start the writeback of the
// range's dirty pages, wait for none of it.
const syncFileRangeWrite = 2

// StartWriteback is sync_file_range(fd, off, n, SYNC_FILE_RANGE_WRITE).
func (f osFile) StartWriteback(off, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	if cerr := rc.Control(func(fd uintptr) { err = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite) }); cerr != nil {
		return cerr
	}
	return err
}
