//go:build !amd64 || purego || noavx512

package kernels

const hasAVX512 = false
