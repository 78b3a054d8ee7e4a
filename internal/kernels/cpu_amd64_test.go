//go:build !purego

package kernels

import "testing"

func TestISAFor(t *testing.T) {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2              = 1 << 5                    // CPUID.7.0:EBX
		bmi2              = 1 << 8
		f, dq, bw, vl     = 1 << 16, 1 << 17, 1 << 30, 1 << 31
		ymmState          = 0x7  // XCR0: x87, SSE, AVX
		zmmState          = 0xe7 // … opmask and both ZMM components
	)
	for _, c := range []struct {
		name         string
		leaf1, leaf7 uint32
		xcr0         uint64
		want         string
	}{
		{"AVX-512 CPU and OS", fma | osxsave | avx, avx2 | bmi2 | f | dq | bw | vl, zmmState, "avx512"},
		{"AVX-512 CPU, OS saves only the YMM state", fma | osxsave | avx, avx2 | bmi2 | f | dq | bw | vl, ymmState, "avx2"},
		{"OS saves the opmask and ZMM0–15 but not ZMM16–31", fma | osxsave | avx, avx2 | bmi2 | f | dq | bw | vl, 0x67, "avx2"},
		{"AVX512F without DQ, BW, VL", fma | osxsave | avx, avx2 | bmi2 | f, zmmState, "avx2"},
		{"AVX-512 without BMI2", fma | osxsave | avx, avx2 | f | dq | bw | vl, zmmState, "go"},
		{"AVX512F, DQ, BW without VL", fma | osxsave | avx, avx2 | bmi2 | f | dq | bw, zmmState, "avx2"},
		{"AVX2 CPU", fma | osxsave | avx, avx2 | bmi2, ymmState, "avx2"},
		{"AVX2 without BMI2", fma | osxsave | avx, avx2, ymmState, "go"},
		{"AVX-512 bits without AVX2", fma | osxsave | avx, bmi2 | f | dq | bw | vl, zmmState, "go"},
		{"no OSXSAVE (XCR0 unreadable, passed as zero)", fma | avx, avx2 | bmi2 | f | dq | bw | vl, 0, "go"},
		{"no OSXSAVE, whatever XCR0 reads", fma | avx, avx2 | bmi2, zmmState, "go"},
		{"OS saves only the SSE state", fma | osxsave | avx, avx2 | bmi2, 0x3, "go"},
		{"no FMA", osxsave | avx, avx2 | bmi2, ymmState, "go"},
		{"max leaf < 7 (leaf 7 passed as zero)", fma | osxsave | avx, 0, zmmState, "go"},
	} {
		if got := isaFor(c.leaf1, c.leaf7, c.xcr0); got != c.want {
			t.Errorf("%s: isaFor(%#x, %#x, %#x) = %q, want %q", c.name, c.leaf1, c.leaf7, c.xcr0, got, c.want)
		}
	}
	// This CPU's own answer is one of the three, and ISA never exceeds it.
	if got := ISA(); got != cpuISA && !(cpuISA == "avx512" && got == "avx2") {
		t.Errorf("ISA() = %q on a CPU that runs up to %q", got, cpuISA)
	}
}
