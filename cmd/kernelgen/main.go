// Command kernelgen is the automatic kernel code generator of Sec. 3.2:
// the paper generates C++ gate kernels from Python, tuning unrolling and
// operand layout per machine; this program generates the Go equivalent —
// fully unrolled k-qubit kernels over split real/imaginary operands using
// the (mR,mR)/(−mI,mI) two-multiply-add update of Eq. (2)–(3).
//
// It writes internal/kernels/generated.go (complex128) and
// internal/kernels/generated_f32.go (complex64/float32), and beside them
// simd_amd64.s with its declarations in simd_amd64.go: the explicitly
// vectorized form of the same update, AVX2+FMA kernels for k = 1…5 in both
// precisions (simd.go), the diagonal segment replay, and the norm and
// entropy reductions (reduce.go). All four are checked in; regenerate with
// `go run ./cmd/kernelgen`. By default nothing is timed at run time:
// kernels.Auto runs the assembly wherever the CPU has AVX2 and FMA and the
// hand-written specialized Go kernels elsewhere (another architecture, the
// purego tag). The generated Go kernels are the Generated variant, which the
// opt-in tuner (kernels.Tune, `qsim -tune`) times against the others.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
)

// precision describes one element-type instantiation of the generated
// kernel family — the complex128 original and its complex64 twin.
type precision struct {
	suffix string // appended to every generated identifier ("" or "F32")
	ctype  string // amplitude element type
	ftype  string // split-operand element type
	label  string // doc-comment label
}

var precisions = []precision{
	{suffix: "", ctype: "complex128", ftype: "float64", label: "double-precision"},
	{suffix: "F32", ctype: "complex64", ftype: "float32", label: "single-precision"},
}

func main() {
	out := flag.String("o", "internal/kernels/generated.go", "output file (complex128 kernels)")
	out32 := flag.String("o32", "internal/kernels/generated_f32.go", "output file (complex64 kernels)")
	kmax := flag.Int("kmax", 5, "largest kernel size to generate (2..6)")
	flag.Parse()
	if *kmax < 2 || *kmax > 6 {
		log.Fatalf("kernelgen: kmax %d out of range [2,6]", *kmax)
	}

	for _, p := range precisions {
		path := *out
		if p.suffix == "F32" {
			path = *out32
		}
		src := generate(p, *kmax)
		if err := os.WriteFile(path, src, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kernelgen: wrote %s (%d bytes, k=2..%d, %s)\n", path, len(src), *kmax, p.ctype)
	}

	asmSrc, stubs := generateSIMD()
	for _, f := range []struct {
		name string
		src  []byte
	}{{"simd_amd64.s", asmSrc}, {"simd_amd64.go", stubs}} {
		path := filepath.Join(filepath.Dir(*out), f.name)
		if err := os.WriteFile(path, f.src, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kernelgen: wrote %s (%d bytes, AVX2+FMA k=1..%d)\n", path, len(f.src), simdKMax)
	}
}

func generate(p precision, kmax int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `// Code generated by cmd/kernelgen; DO NOT EDIT.
//
// Fully unrolled %s k-qubit gate kernels over split real/imaginary
// operands (Sec. 3.2, Eq. (2)-(3)): every complex multiply-accumulate is
// expressed as two real multiply-adds against the pre-computed operand
// tables mr (real parts) and mi (imaginary parts), with all loop structure
// and offsets fixed at generation time.

package kernels

import "qusim/internal/par"

// applyGenerated%s dispatches to the generated kernel for k = 2..%d and
// falls back to the hand-written specialized kernels otherwise.
func applyGenerated%s(amps, m []%s, qs []int) {
	k := len(qs)
	if k < 2 || k > %d {
		applySpecialized%s(amps, m, qs)
		return
	}
	dk := 1 << k
	mr := make([]%s, dk*dk)
	mi := make([]%s, dk*dk)
	for i, v := range m {
		mr[i] = real(v)
		mi[i] = imag(v)
	}
	switch k {
`, p.label, p.suffix, kmax, p.suffix, p.ctype, kmax, p.suffix, p.ftype, p.ftype)
	for k := 2; k <= kmax; k++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\tapplyGen%d%s(amps, mr, mi, qs)\n", k, k, p.suffix)
	}
	fmt.Fprintf(&b, "\t}\n}\n")

	for k := 2; k <= kmax; k++ {
		genKernel(&b, k, p)
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("kernelgen: generated source does not format: %v", err)
	}
	return src
}

// genKernel emits one k-qubit kernel. Small kernels (k ≤ 3) are fully
// unrolled with all operands in scalar locals; larger kernels are blocked —
// the fully unrolled form spills registers once 2·2^k locals are live,
// which is precisely the observation that leads the paper to register
// blocking in Sec. 3.2.
func genKernel(b *bytes.Buffer, k int, p precision) {
	if k >= 4 {
		genBlockedKernel(b, k, p)
		return
	}
	dk := 1 << k
	fmt.Fprintf(b, "\n// applyGen%d%s applies a %d-qubit gate, fully unrolled (%d amplitudes,\n", k, p.suffix, k, dk)
	fmt.Fprintf(b, "// %d complex multiply-accumulates per base index).\n", dk*dk)
	fmt.Fprintf(b, "//\n//qusim:hot\n")
	fmt.Fprintf(b, "func applyGen%d%s(amps []%s, mr, mi []%s, qs []int) {\n", k, p.suffix, p.ctype, p.ftype)
	fmt.Fprintf(b, "\t_ = mr[%d]\n\t_ = mi[%d] // bounds-check elimination for the constant indices below\n", dk*dk-1, dk*dk-1)
	for j := 0; j < k; j++ {
		fmt.Fprintf(b, "\tmask%d := 1<<qs[%d] - 1\n", j, j)
	}
	for j := 0; j < k; j++ {
		fmt.Fprintf(b, "\ts%d := 1 << qs[%d]\n", j, j)
	}
	// Amplitude offsets for each gate-local index.
	fmt.Fprintf(b, "\tpar.For(len(amps)>>%d, grain(%d), func(lo, hi int) {\n", k, k)
	fmt.Fprintf(b, "\t\tfor t := lo; t < hi; t++ {\n")
	fmt.Fprintf(b, "\t\t\tb := t\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(b, "\t\t\tb = ((b &^ mask%d) << 1) | (b & mask%d)\n", j, j)
	}
	// Load amplitudes into split locals.
	for x := 0; x < dk; x++ {
		fmt.Fprintf(b, "\t\t\ti%d := b%s\n", x, offsetExpr(x, k))
	}
	for x := 0; x < dk; x++ {
		fmt.Fprintf(b, "\t\t\tv%d := amps[i%d]\n", x, x)
		fmt.Fprintf(b, "\t\t\ta%dr, a%di := real(v%d), imag(v%d)\n", x, x, x, x)
	}
	// Unrolled rows: o_r = Σ_c m[r,c]·a_c with the split two-FMA form.
	for r := 0; r < dk; r++ {
		fmt.Fprintf(b, "\t\t\to%dr := ", r)
		for c := 0; c < dk; c++ {
			if c > 0 {
				fmt.Fprintf(b, " + ")
			}
			idx := r*dk + c
			fmt.Fprintf(b, "mr[%d]*a%dr - mi[%d]*a%di", idx, c, idx, c)
			if (c+1)%4 == 0 && c+1 < dk {
				fmt.Fprintf(b, " +\n\t\t\t\t")
				c++
				idx = r*dk + c
				fmt.Fprintf(b, "mr[%d]*a%dr - mi[%d]*a%di", idx, c, idx, c)
			}
		}
		fmt.Fprintf(b, "\n")
		fmt.Fprintf(b, "\t\t\to%di := ", r)
		for c := 0; c < dk; c++ {
			if c > 0 {
				fmt.Fprintf(b, " + ")
			}
			idx := r*dk + c
			fmt.Fprintf(b, "mr[%d]*a%di + mi[%d]*a%dr", idx, c, idx, c)
			if (c+1)%4 == 0 && c+1 < dk {
				fmt.Fprintf(b, " +\n\t\t\t\t")
				c++
				idx = r*dk + c
				fmt.Fprintf(b, "mr[%d]*a%di + mi[%d]*a%dr", idx, c, idx, c)
			}
		}
		fmt.Fprintf(b, "\n")
	}
	for x := 0; x < dk; x++ {
		fmt.Fprintf(b, "\t\t\tamps[i%d] = complex(o%dr, o%di)\n", x, x, x)
	}
	fmt.Fprintf(b, "\t\t}\n\t})\n}\n")
}

// genBlockedKernel emits a k ≥ 4 kernel with gathered split operands in
// fixed-size stack arrays and the row update unrolled over column blocks
// of four (the register blocking of Sec. 3.2, B = 4).
func genBlockedKernel(b *bytes.Buffer, k int, p precision) {
	dk := 1 << k
	fmt.Fprintf(b, "\n// applyGen%d%s applies a %d-qubit gate with split operands and column\n", k, p.suffix, k)
	fmt.Fprintf(b, "// blocking (B=4) to keep the accumulators in registers.\n")
	fmt.Fprintf(b, "//\n//qusim:hot\n")
	fmt.Fprintf(b, "func applyGen%d%s(amps []%s, mr, mi []%s, qs []int) {\n", k, p.suffix, p.ctype, p.ftype)
	fmt.Fprintf(b, "\t_ = mr[%d]\n\t_ = mi[%d]\n", dk*dk-1, dk*dk-1)
	for j := 0; j < k; j++ {
		fmt.Fprintf(b, "\tmask%d := 1<<qs[%d] - 1\n", j, j)
	}
	for j := 0; j < k; j++ {
		fmt.Fprintf(b, "\ts%d := 1 << qs[%d]\n", j, j)
	}
	fmt.Fprintf(b, "\tpar.For(len(amps)>>%d, grain(%d), func(lo, hi int) {\n", k, k)
	fmt.Fprintf(b, "\t\tvar idx [%d]int\n", dk)
	fmt.Fprintf(b, "\t\tvar ar, ai, tr, ti [%d]%s\n", dk, p.ftype)
	fmt.Fprintf(b, "\t\tfor t := lo; t < hi; t++ {\n")
	fmt.Fprintf(b, "\t\t\tb := t\n")
	for j := 0; j < k; j++ {
		fmt.Fprintf(b, "\t\t\tb = ((b &^ mask%d) << 1) | (b & mask%d)\n", j, j)
	}
	for x := 0; x < dk; x++ {
		fmt.Fprintf(b, "\t\t\tidx[%d] = b%s\n", x, offsetExpr(x, k))
	}
	fmt.Fprintf(b, "\t\t\tfor x := 0; x < %d; x++ {\n", dk)
	fmt.Fprintf(b, "\t\t\t\tv := amps[idx[x]]\n\t\t\t\tar[x], ai[x] = real(v), imag(v)\n\t\t\t}\n")
	fmt.Fprintf(b, "\t\t\tfor r := 0; r < %d; r++ {\n", dk)
	fmt.Fprintf(b, "\t\t\t\trow := r << %d\n", k)
	fmt.Fprintf(b, "\t\t\t\tvar or, oi %s\n", p.ftype)
	fmt.Fprintf(b, "\t\t\t\tfor c := 0; c < %d; c += 4 {\n", dk)
	fmt.Fprintf(b, "\t\t\t\t\tor += mr[row+c]*ar[c] - mi[row+c]*ai[c] +\n")
	fmt.Fprintf(b, "\t\t\t\t\t\tmr[row+c+1]*ar[c+1] - mi[row+c+1]*ai[c+1] +\n")
	fmt.Fprintf(b, "\t\t\t\t\t\tmr[row+c+2]*ar[c+2] - mi[row+c+2]*ai[c+2] +\n")
	fmt.Fprintf(b, "\t\t\t\t\t\tmr[row+c+3]*ar[c+3] - mi[row+c+3]*ai[c+3]\n")
	fmt.Fprintf(b, "\t\t\t\t\toi += mr[row+c]*ai[c] + mi[row+c]*ar[c] +\n")
	fmt.Fprintf(b, "\t\t\t\t\t\tmr[row+c+1]*ai[c+1] + mi[row+c+1]*ar[c+1] +\n")
	fmt.Fprintf(b, "\t\t\t\t\t\tmr[row+c+2]*ai[c+2] + mi[row+c+2]*ar[c+2] +\n")
	fmt.Fprintf(b, "\t\t\t\t\t\tmr[row+c+3]*ai[c+3] + mi[row+c+3]*ar[c+3]\n")
	fmt.Fprintf(b, "\t\t\t\t}\n")
	// Write through a second pass to avoid overwriting inputs: store into
	// scratch arrays.
	fmt.Fprintf(b, "\t\t\t\ttr[r], ti[r] = or, oi\n")
	fmt.Fprintf(b, "\t\t\t}\n")
	fmt.Fprintf(b, "\t\t\tfor x := 0; x < %d; x++ {\n", dk)
	fmt.Fprintf(b, "\t\t\t\tamps[idx[x]] = complex(tr[x], ti[x])\n\t\t\t}\n")
	fmt.Fprintf(b, "\t\t}\n\t})\n}\n")
}

// offsetExpr renders the offset of gate-local index x as a sum of strides.
func offsetExpr(x, k int) string {
	s := ""
	for j := 0; j < k; j++ {
		if x&(1<<j) != 0 {
			s += fmt.Sprintf(" + s%d", j)
		}
	}
	return s
}
