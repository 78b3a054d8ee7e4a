package kernels

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"
	"unsafe"

	"qusim/internal/par"
	"qusim/internal/telemetry"
)

// Where amplitude buffers come from. Memory, not FLOPs, binds a state-vector
// run (Sec. 3.3), and a pass that streams 2^n amplitudes through 4 KiB pages
// takes a page fault per 256 of them the first time and a page-table walk
// per TLB miss every time after. NewAmps is the one allocator of every
// state-sized buffer in the tree; on Linux it asks for 2 MiB pages.
const (
	basePageBytes = 4 << 10
	hugePageBytes = 2 << 20

	// hugeMinBytes is the size a buffer has to exceed before NewAmps asks
	// for 2 MiB pages: what a 2 048-entry second-level TLB reaches on 4 KiB
	// pages. A buffer within that reach takes no walks a larger page would
	// save, and faulting in a cold 2 MiB page for it would only show in
	// set-up time.
	hugeMinBytes = 2048 * basePageBytes
)

// NewAmps returns n zero amplitudes, len == cap == n. The memory is an
// ordinary slice on the Go heap. Above hugeMinBytes the whole 2 MiB blocks
// inside it are advised MADV_HUGEPAGE before anything has touched them (the
// kernel backs a range with huge pages when it is first faulted in, not
// after), and a kernel that refuses, or is not Linux, leaves the buffer as
// make returned it. Then every page is touched once under the chunking of
// the later sweeps — the first-touch placement of Sec. 3.3; a fresh page
// arrives zeroed, so one store per page is the whole of it. That placement
// holds for fresh heap only: memory the runtime reuses it zeroes itself
// (memclrNoHeapPointers) inside make, on the calling goroutine, which
// faults every page there before par runs.
func NewAmps[T complexAmp](n int) []T {
	amps := make([]T, n)
	if n == 0 {
		return amps
	}
	size := int(unsafe.Sizeof(amps[0]))
	if n*size > hugeMinBytes {
		adviseHuge(AmpBytes(amps))
	}
	step := basePageBytes / size
	const grain = 256 // pages: 1 MiB, below which one worker touches them all
	par.For((n+step-1)/step, grain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			amps[p*step] = 0
		}
	})
	return amps
}

// AmpBytes returns the memory of amps as bytes: real then imaginary part of
// each amplitude, in the host's byte order. It is a view, not a copy — what
// file I/O and mpi's exchange read into and write from without a codec in
// between (oocvec's state file, a rank's shard, and the wire encoding on a
// little-endian host).
func AmpBytes[T complexAmp](amps []T) []byte {
	if len(amps) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(amps))), len(amps)*int(unsafe.Sizeof(amps[0])))
}

// The wire encoding of amplitudes — snapshot payloads hold it; mpi's exchange
// checksums memory as it lies — is their parts as little-endian words, real
// part first: 8-byte words for complex128, 4-byte ones for complex64. On a
// little-endian host that is amplitude memory as it lies (littleEndian, a
// variable so that a test can force the other branch, which recodes
// wireWindow bytes at a time). Castagnoli is the CRC32C table of every
// checksum over it (hardware-accelerated on amd64 and arm64).
var (
	Castagnoli   = crc32.MakeTable(crc32.Castagnoli)
	littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1
)

const wireWindow = 64 << 10

// ToWire hands put the wire encoding of raw, the memory of amplitudes
// (AmpBytes) whose parts are word bytes wide, in order: on a little-endian
// host raw itself, in one call and with nothing copied; elsewhere one
// bounded buffer, window by window, that put must not keep. It returns
// put's first error.
func ToWire(raw []byte, word int, put func([]byte) error) error { return wire(raw, word, put, false) }

// FromWire is ToWire's inverse: get fills each slice it is handed with the
// next wire bytes, and raw receives what they encode (on a little-endian
// host get fills raw). It returns get's first error, raw partly filled.
func FromWire(raw []byte, word int, get func([]byte) error) error { return wire(raw, word, get, true) }

// wire is ToWire, or FromWire when in is set: either way a word swaps.
func wire(raw []byte, word int, io func([]byte) error, in bool) error {
	if littleEndian {
		return io(raw)
	}
	buf := make([]byte, min(len(raw), wireWindow))
	for off := 0; off < len(raw); off += wireWindow {
		win := raw[off:min(off+wireWindow, len(raw))]
		b := buf[:len(win)]
		for i := 0; !in && i < len(b); i += word {
			swapWord(b[i:], win[i:], word)
		}
		if err := io(b); err != nil {
			return err
		}
		for i := 0; in && i < len(b); i += word {
			swapWord(win[i:], b[i:], word)
		}
	}
	return nil
}

// swapWord writes the word at src between host and little-endian order to dst.
func swapWord(dst, src []byte, word int) {
	if word == 8 {
		binary.LittleEndian.PutUint64(dst, binary.NativeEndian.Uint64(src))
	} else {
		binary.LittleEndian.PutUint32(dst, binary.NativeEndian.Uint32(src))
	}
}

// Populated returns how many leading amplitudes of amps hold every nonzero
// byte of it, rounded up to whole 4 KiB pages and at most len(amps): from
// there on every amplitude is +0 in both parts, and 0 means all of them are.
// A page is populated when any of its bytes is nonzero, so −0 and NaN count.
// The scan runs from the top page down, under par; each worker stops at the
// first populated page of its chunk or where it falls below one another
// worker found. A dense buffer costs the read of its top page, |0…0⟩ one
// read of every page.
func Populated[T complexAmp](amps []T) int {
	if len(amps) == 0 {
		return 0
	}
	size := int(unsafe.Sizeof(amps[0]))
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(amps))), len(amps)*size/8)
	const pageWords = basePageBytes / 8
	pages := (len(words) + pageWords - 1) / pageWords
	populated := func(p int) bool {
		var a, b, c, d uint64
		w := words[p*pageWords : min((p+1)*pageWords, len(words))]
		for ; len(w) >= 4; w = w[4:] {
			a, b, c, d = a|w[0], b|w[1], c|w[2], d|w[3]
		}
		for _, x := range w {
			a |= x
		}
		return a|b|c|d != 0
	}
	if populated(pages - 1) {
		return len(amps)
	}
	var top atomic.Int64 // one past the highest populated page found yet
	const grain = 256    // pages: 1 MiB, below which one worker scans them all
	par.For(pages-1, grain, func(lo, hi int) {
		for p := pages - 2 - lo; p > pages-2-hi; p-- {
			if int64(p) < top.Load() {
				return
			}
			if populated(p) {
				for t := top.Load(); t < int64(p+1) && !top.CompareAndSwap(t, int64(p+1)); t = top.Load() {
				}
				return
			}
		}
	})
	return min(int(top.Load())*(basePageBytes/size), len(amps))
}

// byteRange is the address range [lo, hi) of a buffer.
type byteRange struct{ lo, hi uintptr }

func rangeOf[T complexAmp](amps []T) byteRange {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(amps)))
	return byteRange{lo, lo + uintptr(len(amps))*unsafe.Sizeof(amps[0])}
}

// HugeBytes returns how many bytes of the buffers sit on 2 MiB pages: the
// AnonHugePages of the mappings that hold them in /proc/self/smaps, each
// mapping counted up to its overlap with the buffers. Zero where that file
// does not exist.
func HugeBytes[T complexAmp](bufs ...[]T) int64 {
	ranges := make([]byteRange, 0, len(bufs))
	for _, b := range bufs {
		// A buffer shorter than a huge page holds none whole.
		if r := rangeOf(b); r.hi-r.lo >= hugePageBytes {
			ranges = append(ranges, r)
		}
	}
	if len(ranges) == 0 {
		return 0
	}
	return hugeBytes(ranges)
}

// ObservePages records where the state of a run lives: the bytes of bufs in
// the gauge mem.state_bytes and how many of them sit on 2 MiB pages in
// mem.huge_bytes, so that a run that fell back to 4 KiB pages shows from
// outside. A disabled t costs a nil check.
func ObservePages[T complexAmp](t *telemetry.Telemetry, bufs ...[]T) {
	if !t.Enabled() {
		return
	}
	var state int64
	for _, b := range bufs {
		r := rangeOf(b)
		state += int64(r.hi - r.lo)
	}
	t.Gauge("mem.state_bytes").Set(state)
	t.Gauge("mem.huge_bytes").Set(HugeBytes(bufs...))
}

// WhyNoHugePages names the reason a buffer of bufBytes allocated by NewAmps
// sits on no 2 MiB page.
func WhyNoHugePages(bufBytes int64) string {
	switch mode := thpMode(); {
	case mode == "":
		return "no transparent huge pages on this platform"
	case mode == "never":
		return "transparent_hugepage=never"
	case bufBytes <= hugeMinBytes:
		return "buffers of 8 MiB or less are not advised"
	default:
		return "the kernel had no 2 MiB pages to give (transparent_hugepage=" + mode + ")"
	}
}
