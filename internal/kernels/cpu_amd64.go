//go:build !purego

package kernels

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasSIMD reports whether the kernels of simd_amd64.s can run here: the CPU
// has AVX2 and FMA, and the OS saves the YMM state across context switches
// (OSXSAVE set and XCR0 enabling the SSE and AVX state components).
var hasSIMD = func() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.7.0:EBX
		ymm     = 0x6    // XCR0: SSE and AVX state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&ymm != ymm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}()
