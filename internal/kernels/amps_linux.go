package kernels

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// adviseHuge asks for transparent huge pages under the whole 2 MiB blocks
// inside b. The error is dropped on purpose: without the advice the buffer
// is what make returned.
func adviseHuge(b []byte) {
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := -addr & (hugePageBytes - 1) // bytes up to the first aligned block
	hi := (addr + uintptr(len(b))) & (hugePageBytes - 1)
	if lo+hi+hugePageBytes > uintptr(len(b)) {
		return
	}
	_ = syscall.Madvise(b[lo:uintptr(len(b))-hi], syscall.MADV_HUGEPAGE)
}

// thpMode returns the bracketed word of
// /sys/kernel/mm/transparent_hugepage/enabled — always, madvise or never —
// or "" where the kernel has no transparent huge pages.
func thpMode() string {
	s, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		return ""
	}
	_, s, _ = bytes.Cut(s, []byte("["))
	s, _, _ = bytes.Cut(s, []byte("]"))
	return string(s)
}

// hugeBytes sums, over the mappings of /proc/self/smaps, min(AnonHugePages,
// overlap with ranges).
func hugeBytes(ranges []byteRange) int64 {
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		return 0
	}
	var total int64
	var lo, hi uintptr // the mapping the lines being read describe
	for len(smaps) > 0 {
		var line []byte
		line, smaps, _ = bytes.Cut(smaps, []byte("\n"))
		// A mapping's header starts with its address range in lower-case
		// hex; every field below it starts with a capital.
		if len(line) > 0 && (line[0] < 'A' || line[0] > 'Z') {
			a, rest, _ := bytes.Cut(line, []byte("-"))
			b, _, _ := bytes.Cut(rest, []byte(" "))
			l, _ := strconv.ParseUint(string(a), 16, 64)
			h, _ := strconv.ParseUint(string(b), 16, 64)
			lo, hi = uintptr(l), uintptr(h)
			continue
		}
		kb, ok := bytes.CutPrefix(line, []byte("AnonHugePages:"))
		if !ok {
			continue
		}
		kb = bytes.TrimSuffix(bytes.TrimSpace(kb), []byte(" kB"))
		n, _ := strconv.ParseInt(string(kb), 10, 64)
		left := n << 10
		for _, r := range ranges {
			if over := int64(min(hi, r.hi)) - int64(max(lo, r.lo)); over > 0 {
				take := min(left, over)
				total += take
				left -= take
			}
		}
	}
	return total
}
