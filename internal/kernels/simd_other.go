//go:build !amd64 || purego

package kernels

// Without the assembly kernels (another architecture, or the purego build
// tag) the kernel tables stay empty and nothing reads them.
const (
	hasSIMD = false
	cpuISA  = "go"
)

var (
	simdF64    [5][2]simdFuncF64
	simdF32    [5][4]simdFuncF32
	simd512F64 [5][3]simdFuncF64
	simd512F32 [5][4]simdFuncF32
)

func simdDiagRunF64(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64) {}
func simdDiagWinF64(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64) {}
func simdDiagRunF32(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64)   {}
func simdDiagWinF32(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64)   {}
func simd512DiagRunF64(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64) {
}
func simd512DiagWinF64(amps *complex128, base, units, unit, sel int, tbl *complex128, masks *uint64) {
}
func simd512DiagRunF32(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64) {}
func simd512DiagWinF32(amps *complex64, base, units, unit, sel int, tbl *complex64, masks *uint64) {}

func simdNormF64(amps *complex128, n int) (norm, ent float64)           { return }
func simdNormEntropyF64(amps *complex128, n int) (norm, ent float64)    { return }
func simdNormF32(amps *complex64, n int) (norm, ent float64)            { return }
func simdNormEntropyF32(amps *complex64, n int) (norm, ent float64)     { return }
func simd512NormF64(amps *complex128, n int) (norm, ent float64)        { return }
func simd512NormEntropyF64(amps *complex128, n int) (norm, ent float64) { return }
func simd512NormF32(amps *complex64, n int) (norm, ent float64)         { return }
func simd512NormEntropyF32(amps *complex64, n int) (norm, ent float64)  { return }
