// Code generated by cmd/kernelgen; DO NOT EDIT.

//go:build amd64 && !purego

package kernels

// Declarations of the kernels in simd_amd64.s (AVX2+FMA) and
// simd512_amd64.s (AVX-512), and the tables prepareSIMD picks from:
// [k-1][class], the class being the bitmask of target positions below the
// chunk width for the YMM kernels and the number of them for the ZMM ones.

//go:noescape
func simdDiagRunF64(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64)

//go:noescape
func simdDiagWinF64(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64)

//go:noescape
func simdNormF64(amps *complex128, n int) (norm, ent float64)

//go:noescape
func simdNormEntropyF64(amps *complex128, n int) (norm, ent float64)

//go:noescape
func simdF64K1C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K1C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K2C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K2C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K3C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K3C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K4C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K4C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K5C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simdF64K5C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

var simdF64 = [5][2]simdFuncF64{
	{simdF64K1C0, simdF64K1C1},
	{simdF64K2C0, simdF64K2C1},
	{simdF64K3C0, simdF64K3C1},
	{simdF64K4C0, simdF64K4C1},
	{simdF64K5C0, simdF64K5C1},
}

//go:noescape
func simdDiagRunF32(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64)

//go:noescape
func simdDiagWinF32(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64)

//go:noescape
func simdNormF32(amps *complex64, n int) (norm, ent float64)

//go:noescape
func simdNormEntropyF32(amps *complex64, n int) (norm, ent float64)

//go:noescape
func simdF32K1C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K1C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K1C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K2C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K2C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K2C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K2C3(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K3C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K3C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K3C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K3C3(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K4C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K4C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K4C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K4C3(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K5C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K5C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K5C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simdF32K5C3(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

var simdF32 = [5][4]simdFuncF32{
	{simdF32K1C0, simdF32K1C1, simdF32K1C2, nil},
	{simdF32K2C0, simdF32K2C1, simdF32K2C2, simdF32K2C3},
	{simdF32K3C0, simdF32K3C1, simdF32K3C2, simdF32K3C3},
	{simdF32K4C0, simdF32K4C1, simdF32K4C2, simdF32K4C3},
	{simdF32K5C0, simdF32K5C1, simdF32K5C2, simdF32K5C3},
}

//go:noescape
func simd512DiagRunF64(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64)

//go:noescape
func simd512DiagWinF64(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64)

//go:noescape
func simd512NormF64(amps *complex128, n int) (norm, ent float64)

//go:noescape
func simd512NormEntropyF64(amps *complex128, n int) (norm, ent float64)

//go:noescape
func simd512F64K1C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K1C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K2C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K2C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K2C2(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K3C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K3C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K3C2(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K4C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K4C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K4C2(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K5C0(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K5C1(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

//go:noescape
func simd512F64K5C2(amps *complex128, lo, hi int, masks, offs *int, mat *float64)

var simd512F64 = [5][3]simdFuncF64{
	{simd512F64K1C0, simd512F64K1C1, nil},
	{simd512F64K2C0, simd512F64K2C1, simd512F64K2C2},
	{simd512F64K3C0, simd512F64K3C1, simd512F64K3C2},
	{simd512F64K4C0, simd512F64K4C1, simd512F64K4C2},
	{simd512F64K5C0, simd512F64K5C1, simd512F64K5C2},
}

//go:noescape
func simd512DiagRunF32(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64)

//go:noescape
func simd512DiagWinF32(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64)

//go:noescape
func simd512NormF32(amps *complex64, n int) (norm, ent float64)

//go:noescape
func simd512NormEntropyF32(amps *complex64, n int) (norm, ent float64)

//go:noescape
func simd512F32K1C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K1C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K2C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K2C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K2C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K3C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K3C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K3C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K3C3(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K4C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K4C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K4C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K4C3(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K5C0(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K5C1(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K5C2(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

//go:noescape
func simd512F32K5C3(amps *complex64, lo, hi int, masks, offs *int, mat *float32)

var simd512F32 = [5][4]simdFuncF32{
	{simd512F32K1C0, simd512F32K1C1, nil, nil},
	{simd512F32K2C0, simd512F32K2C1, simd512F32K2C2, nil},
	{simd512F32K3C0, simd512F32K3C1, simd512F32K3C2, simd512F32K3C3},
	{simd512F32K4C0, simd512F32K4C1, simd512F32K4C2, simd512F32K4C3},
	{simd512F32K5C0, simd512F32K5C1, simd512F32K5C2, simd512F32K5C3},
}
