package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
)

// The pure-Go dense kernels, k = 1…5, emitted from the description the
// assembly is: what runs where there is no assembly (another architecture,
// an x86 without AVX2+FMA+BMI2, the purego tag). A body gathers the 2^k
// amplitudes of one base index widened to complex128 and computes each
// output row as the assembly computes it in every lane — an accumulator
// pair from +0 and, column by column, the two FMAs of the (mR,mR)/(−mI,mI)
// split against the matrix expandMatrix lays out with one row per block:
//
//	re = fma(mR, aRe, re); im = fma(mR, aIm, im)
//	re = fma(−mI, aIm, re); im = fma(mI, aRe, im)
//
// Every product is an explicit math.FMA, never a*b+c: the Go spec lets a
// compiler fuse an expression or not, and arm64 would, so the spelled-out
// FMA is what keeps the bits one on every host. The body stores each output
// as the amplitude type, so a complex64 state is computed in float64 and
// rounded once per part at the store.
//
// A body loops over the rows, min(goRows, 2^k) of them at a time,
// interleaved column by column so their accumulator chains overlap in the
// FMA pipeline, each straight-line over its columns: a fully unrolled k = 4
// body would be 1 024 FMAs per base index. At k ≤ 2 the loop has one turn
// and is written as a block.

// goRows is the number of rows a loop iteration computes at once: four
// read k = 5 in 1.4 s where one row read 2.5 s on a 2^26-amplitude state at
// GOAMD64=v3, where math.FMA is one instruction as on arm64 (DESIGN §12).
const goRows = 4

// generateGo returns the pure-Go kernels' file.
func generateGo() genFile {
	var g bytes.Buffer
	fmt.Fprintf(&g, `// Code generated by cmd/kernelgen; DO NOT EDIT.

package kernels

import "math"

// The pure-Go dense kernels, k = 1…%d in both precisions: the assembly's
// arithmetic per base index, every product an explicit math.FMA.
// cmd/kernelgen/gokernels.go documents them.

// goDense prepares the pure-Go kernel for m on 1…%[1]d sorted positions qs.
func goDense[C complexAmp](m []C, qs []int) Dense[C] {
	switch len(qs) {
`, simdKMax)
	for k := 2; k <= simdKMax; k++ {
		fmt.Fprintf(&g, "case %d:\nreturn goK%d(m, qs)\n", k, k)
	}
	g.WriteString("}\nreturn goK1(m, qs)\n}\n")
	for k := 1; k <= simdKMax; k++ {
		genGoKernel(&g, k)
	}
	src, err := format.Source(g.Bytes())
	if err != nil {
		log.Fatalf("kernelgen: generated Go kernels do not format: %v", err)
	}
	return genFile{"gokernels.go", src}
}

// genGoKernel emits the body of one k.
func genGoKernel(g *bytes.Buffer, k int) {
	dk := 1 << k
	fmt.Fprintf(g, `
// goK%[1]d applies a %[1]d-qubit gate.
//
//qusim:hot
func goK%[1]d[C complexAmp](m []C, qs []int) Dense[C] {
	masks, offs, mat := insertMasks(qs), offsets(qs), expandMatrix[C, float64](m, %[1]d, 1)
	return Dense[C]{shift: %[1]d, grain: grain(%[1]d), run: func(amps []C, lo, hi int) {
		masks, offs, mat := (*[%[1]d]int)(masks), (*[%[2]d]int)(offs), (*[%[3]d]float64)(mat)
		for t := lo; t < hi; t++ {
			b := t
`, k, dk, 3*dk*dk)
	for j := 0; j < k; j++ {
		fmt.Fprintf(g, "b = (b&^masks[%d])<<1 | b&masks[%[1]d]\n", j)
	}
	for x := 0; x < dk; x++ {
		fmt.Fprintf(g, "a%d := complex128(amps[b+offs[%[1]d]])\n", x)
	}
	// The row loop: nr output rows a turn, interleaved column by column; row
	// i of them reads its operands from w at i·3·2^k + 3·column, mR, −mI,
	// mI, and stores to offs[r+i] (offs[i] in a one-turn block).
	nr, r := min(goRows, dk), "r+"
	if nr < dk {
		fmt.Fprintf(g, "for r := 0; r < %d; r += %d {\nw := (*[%d]float64)(mat[%d*r:])\n", dk, nr, 3*dk*nr, 3*dk)
	} else {
		g.WriteString("{\nw := mat\n")
		r = ""
	}
	for i := 0; i < nr; i++ {
		fmt.Fprintf(g, "var re%d, im%[1]d float64\n", i)
	}
	for c := 0; c < dk; c++ {
		for i := 0; i < nr; i++ {
			o := 3*dk*i + 3*c
			fmt.Fprintf(g, "re%d, im%[1]d = math.FMA(w[%d], real(a%d), re%[1]d), math.FMA(w[%[2]d], imag(a%[3]d), im%[1]d)\n", i, o, c)
			fmt.Fprintf(g, "re%d, im%[1]d = math.FMA(w[%d], imag(a%d), re%[1]d), math.FMA(w[%[4]d], real(a%[3]d), im%[1]d)\n", i, o+1, c, o+2)
		}
	}
	for i := 0; i < nr; i++ {
		fmt.Fprintf(g, "amps[b+offs[%s%d]] = C(complex(re%[2]d, im%[2]d))\n", r, i)
	}
	g.WriteString("}\n")
	g.WriteString("}\n}}\n}\n")
}
