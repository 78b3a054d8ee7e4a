package kernels

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

const testAmps = 1 << 22 // 64 MiB of complex128

// skipUnlessTHP skips a test of huge-page backing where the kernel gives
// none on request.
func skipUnlessTHP(t *testing.T) {
	if mode := thpMode(); mode != "madvise" && mode != "always" {
		t.Skipf("transparent_hugepage=%q: NewAmps' advice has no effect here", mode)
	}
}

// hugeHalf fails unless at least half of amps, once touched, sits on 2 MiB
// pages — or skips, when a probe of as many bytes that does not go through
// NewAmps gets no 2 MiB page either: the kernel has no free 2 MiB block at
// that moment, which says nothing of NewAmps.
func hugeHalf(t *testing.T, amps []complex128) {
	t.Helper()
	for i := range amps {
		amps[i] = 1
	}
	huge, total := HugeBytes(amps), int64(16*len(amps))
	if huge >= total/2 {
		return
	}
	if probe := hugeProbe(t, int(total)); probe == 0 {
		t.Skipf("%d of %d MiB on 2 MiB pages, and a plain MADV_HUGEPAGE mapping of %d MiB got none either: no free 2 MiB block on this host now",
			huge>>20, total>>20, total>>20)
	}
	t.Errorf("%d of %d MiB on 2 MiB pages, want at least half", huge>>20, total>>20)
}

// hugeProbe maps size bytes outside the Go heap, advises MADV_HUGEPAGE on
// the whole mapping, touches every page and returns how many of its bytes
// the kernel put on 2 MiB pages.
func hugeProbe(t *testing.T, size int) int64 {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatalf("probe mapping: %v", err)
	}
	defer syscall.Munmap(b)
	if err := syscall.Madvise(b, syscall.MADV_HUGEPAGE); err != nil {
		t.Fatalf("probe advice: %v", err)
	}
	for i := 0; i < len(b); i += basePageBytes {
		b[i] = 1
	}
	return HugeBytes(unsafe.Slice((*complex128)(unsafe.Pointer(&b[0])), len(b)/16))
}

func TestNewAmpsHugeBacked(t *testing.T) {
	skipUnlessTHP(t)
	hugeHalf(t, NewAmps[complex128](testAmps))
}

// Every rep after the first allocates its state from a span the collector
// freed and the scavenger returned to the OS. make clears such a span before
// NewAmps can advise it, so the pages are faulted in under whatever the
// mapping says by then: the earlier advice has to survive the scavenger's
// MADV_DONTNEED, and the runtime must not undo it.
func TestNewAmpsHugeBackedAfterRecycle(t *testing.T) {
	skipUnlessTHP(t)
	var prev uintptr
	recycled := 0
	for cycle := 0; cycle < 4; cycle++ {
		amps := NewAmps[complex128](testAmps)
		hugeHalf(t, amps)
		addr := uintptr(unsafe.Pointer(unsafe.SliceData(amps)))
		if addr == prev {
			recycled++
		}
		prev = addr
		debug.FreeOSMemory() // collects amps, dead by now, and returns its span
	}
	if recycled == 0 {
		t.Log("no allocation came back at the address of the one before: nothing was recycled")
	}
}

// adviseHuge on ranges with no whole 2 MiB block inside must do nothing: a
// wrong interior slices out of range.
func TestAdviseHugeWithoutWholeBlock(t *testing.T) {
	buf := make([]byte, 3*hugePageBytes)
	a := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf))) & (hugePageBytes - 1)) // first aligned offset
	for _, r := range [][2]int{
		{a, a},                                         // empty
		{a + 1, a + 1 + basePageBytes},                 // inside one block
		{a + basePageBytes, a + hugePageBytes},         // ends on a boundary, starts after one
		{a + 1, a + 2*hugePageBytes - 1},               // nearly two blocks, neither whole
		{a + hugePageBytes - 1, a + hugePageBytes + 1}, // straddles a boundary
	} {
		adviseHuge(buf[r[0]:r[1]])
	}
}
