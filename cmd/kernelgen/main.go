// Command kernelgen is the automatic kernel code generator of Sec. 3.2:
// the paper generates C++ gate kernels from Python, tuning unrolling and
// operand layout per machine; this program generates the Go assembly
// equivalent at two vector widths from one kernel description —
// internal/kernels/simd_amd64.s (AVX2+FMA, YMM registers) and
// simd512_amd64.s (AVX-512, ZMM registers), with their declarations in
// simd_amd64.go: the (mR,mR)/(−mI,mI) two-FMA update of Eq. (2)–(3),
// explicitly vectorized for k = 1…5 in both precisions (simd.go), the
// diagonal window and run loops, and the norm and entropy reductions
// (reduce.go) — and, from the same description, the pure-Go kernels of
// internal/kernels/gokernels.go, which run a lane's FMA sequence through
// math.FMA (gokernels.go). Per amplitude every set runs the same FMAs in
// the same order, so their double-precision results agree bit for bit. All
// four files are checked in; regenerate with `go run ./cmd/kernelgen`. Nothing is
// generated or timed at run time: package kernels runs the widest assembly
// the CPU and OS support (kernels.ISA) and the pure-Go kernels elsewhere
// (another architecture, an older CPU, the purego tag).
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

	for _, f := range append(generateSIMD(), generateGo()) {
		path := filepath.Join(*out, f.name)
		if err := os.WriteFile(path, f.src, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kernelgen: wrote %s (%d bytes, k=1..%d)\n", path, len(f.src), simdKMax)
	}
}
