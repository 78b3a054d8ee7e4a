//go:build !purego

package kernels

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuISA is the widest kernel set of this package the CPU and the OS
// support; the noavx512 build tag can still hold ISA at "avx2" below it.
var cpuISA = func() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	var b7 uint32
	if maxLeaf >= 7 {
		_, b7, _, _ = cpuid(7, 0)
	}
	var xcr0 uint64
	if c1&cpuOSXSAVE != 0 { // XGETBV faults without it
		lo, hi := xgetbv()
		xcr0 = uint64(hi)<<32 | uint64(lo)
	}
	return isaFor(c1, b7, xcr0)
}()

// hasSIMD reports whether the YMM kernels of simd_amd64.s can run here — and
// with them the assembly diagonal loops and reductions of either width.
var hasSIMD = cpuISA != "go"

const cpuOSXSAVE = 1 << 27 // CPUID.1:ECX

// isaFor names the widest kernel set a CPU can run, from CPUID.1:ECX,
// CPUID.7.0:EBX (zero when the CPU has no leaf 7) and XCR0 (zero without
// OSXSAVE): "avx2" needs AVX2, FMA, BMI2 (the diagonal kernels pick rows
// with PEXT, the ZMM kernels index with PDEP) and an OS that saves the YMM
// state across context switches (OSXSAVE set, XCR0 enabling the SSE and AVX
// components); "avx512" needs, on top of that, AVX-512 F, DQ, BW and VL and
// XCR0 enabling the opmask and both ZMM components.
func isaFor(leaf1ECX, leaf7EBX uint32, xcr0 uint64) string {
	const (
		fma    = 1 << 12 // CPUID.1:ECX
		avx    = 1 << 28
		avx2   = 1<<5 | 1<<8                   // CPUID.7.0:EBX: AVX2, BMI2
		avx512 = 1<<16 | 1<<17 | 1<<30 | 1<<31 // AVX-512 F, DQ, BW, VL
		ymm    = 0x6                           // XCR0: SSE and AVX state
		zmm    = 0xe0                          // XCR0: opmask, ZMM0–15 upper halves, ZMM16–31
	)
	if need := uint32(fma | cpuOSXSAVE | avx); leaf1ECX&need != need || xcr0&ymm != ymm || leaf7EBX&avx2 != avx2 {
		return "go"
	}
	if leaf7EBX&avx512 != avx512 || xcr0&zmm != zmm {
		return "avx2"
	}
	return "avx512"
}
