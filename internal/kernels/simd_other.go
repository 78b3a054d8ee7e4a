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

func simdDiagF64(base *complex128, segs *diagSegment[complex128], n int)    {}
func simdDiagF32(base *complex64, segs *diagSegment[complex64], n int)      {}
func simd512DiagF64(base *complex128, segs *diagSegment[complex128], n int) {}
func simd512DiagF32(base *complex64, segs *diagSegment[complex64], n int)   {}

func simdNormF64(amps *complex128, n int) (norm, ent float64)           { return }
func simdNormEntropyF64(amps *complex128, n int) (norm, ent float64)    { return }
func simdNormF32(amps *complex64, n int) (norm, ent float64)            { return }
func simdNormEntropyF32(amps *complex64, n int) (norm, ent float64)     { return }
func simd512NormF64(amps *complex128, n int) (norm, ent float64)        { return }
func simd512NormEntropyF64(amps *complex128, n int) (norm, ent float64) { return }
func simd512NormF32(amps *complex64, n int) (norm, ent float64)         { return }
func simd512NormEntropyF32(amps *complex64, n int) (norm, ent float64)  { return }
