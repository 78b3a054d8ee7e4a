// Command kernelgen is the automatic kernel code generator of Sec. 3.2:
// the paper generates C++ gate kernels from Python, tuning unrolling and
// operand layout per machine; this program generates the Go assembly
// equivalent — internal/kernels/simd_amd64.s with its declarations in
// simd_amd64.go: the (mR,mR)/(−mI,mI) two-FMA update of Eq. (2)–(3),
// explicitly vectorized as AVX2+FMA kernels for k = 1…5 in both precisions
// (simd.go), the diagonal segment replay, and the norm and entropy
// reductions (reduce.go). Both files are checked in; regenerate with
// `go run ./cmd/kernelgen`. Nothing is generated or timed at run time:
// package kernels runs the assembly wherever the CPU has AVX2 and FMA and
// the hand-written Go kernels elsewhere (another architecture, the purego
// tag).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
)

func main() {
	out := flag.String("o", "internal/kernels", "output directory")
	flag.Parse()

	asmSrc, stubs := generateSIMD()
	for _, f := range []struct {
		name string
		src  []byte
	}{{"simd_amd64.s", asmSrc}, {"simd_amd64.go", stubs}} {
		path := filepath.Join(*out, f.name)
		if err := os.WriteFile(path, f.src, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kernelgen: wrote %s (%d bytes, AVX2+FMA k=1..%d)\n", path, len(f.src), simdKMax)
	}
}
