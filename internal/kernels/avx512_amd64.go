//go:build !purego && !noavx512

package kernels

// hasAVX512 reports whether the ZMM kernels of simd512_amd64.s run here; the
// noavx512 build tag makes it a false constant (avx512_off.go), which is how
// an AVX-512 host still executes and prices the YMM set.
var hasAVX512 = cpuISA == "avx512"
