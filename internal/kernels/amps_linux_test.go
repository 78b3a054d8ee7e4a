package kernels

import (
	"runtime/debug"
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

func hugeHalf(t *testing.T, amps []complex128) {
	t.Helper()
	for i := range amps {
		amps[i] = 1
	}
	if huge, total := HugeBytes(amps), int64(16*len(amps)); huge < total/2 {
		t.Errorf("%d of %d MiB on 2 MiB pages, want at least half", huge>>20, total>>20)
	}
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
