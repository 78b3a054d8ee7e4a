package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math/bits"
	"strings"
)

// The AVX2+FMA kernels of Sec. 3.1–3.2, emitted as Go assembly. One YMM
// register is a *chunk*: 32 consecutive bytes of the state, 2 complex128 or
// 4 complex64. A kernel works in chunk space: the caller hands it k sorted
// zero-insertion masks and 2^k byte offsets, and every iteration touches
// the 2^k chunks base+offs[j]. The SIMD lanes are base indices, never gate
// indices, so every lane runs the same instruction stream and the result
// of a lane does not depend on which lane it is.
//
// When every target sits above the chunk (class 0) chunk j simply holds
// gate index j for lanes consecutive base indices. When c targets sit
// inside the chunk (the class is their bitmask) the chunk holds 2^c gate
// indices and fewer lanes; the caller then makes the c lowest free bits
// above the chunk the low bits of j, and 2^c chunks are transposed in
// registers into 2^c gate-index vectors on load and back on store.
//
// Per matrix column the update is the paper's operand split,
//
//	acc_r += [mR …]·a;  acc_r += [−mI, mI …]·swap(a),
//
// two FMAs per row against a matrix pre-expanded in access order (package
// kernels, expandMatrix): row blocks of min(2^k, 8) rows, per column the
// block's mR scalars and then its (−mI, mI) pairs. k ≤ 3 keeps all 2^k
// accumulators in registers and streams the inputs through; k ≥ 4 gathers
// the transposed inputs into a stack buffer once and walks the row blocks.

// simdPrec is one element type's instruction set.
type simdPrec struct {
	name    string // "F64" or "F32"
	ctype   string // amplitude type of the Go stubs
	ftype   string // expanded-matrix element type
	fbytes  int    // bytes per real
	lanes   int    // amplitudes per chunk
	mov     string
	fma     string
	mul     string
	xor     string
	bcast   string // one real → every element
	bcast2  string // one (−mI, mI) pair → every amplitude
	swap    string // swap real and imaginary within each amplitude
	swapX   string // the same on one amplitude in an XMM register
	movOne  string // load/store of one amplitude through an XMM register
	classes []transpose
}

// transpose is how the 2^c chunks of one class become gate-index vectors.
type transpose int

const (
	tNone transpose = iota // class 0: chunks are gate-index vectors already
	t64                    // target at the even/odd 64-bit element: unpack pairs
	t128                   // target selects the 128-bit half: permute halves
	t4x4                   // both: a 4×4 transpose of 64-bit elements
)

func (t transpose) inChunk() int { return []int{0, 1, 1, 2}[t] }

var simdPrecs = []simdPrec{
	{name: "F64", ctype: "complex128", ftype: "float64", fbytes: 8, lanes: 2,
		mov: "VMOVUPD", fma: "VFMADD231PD", mul: "VMULPD", xor: "VXORPD",
		bcast: "VBROADCASTSD", bcast2: "VBROADCASTF128",
		swap: "VPERMILPD $5,", swapX: "VPERMILPD $1,", movOne: "VMOVUPD",
		classes: []transpose{tNone, t128}},
	{name: "F32", ctype: "complex64", ftype: "float32", fbytes: 4, lanes: 4,
		mov: "VMOVUPS", fma: "VFMADD231PS", mul: "VMULPS", xor: "VXORPS",
		bcast: "VBROADCASTSS", bcast2: "VBROADCASTSD",
		swap: "VPERMILPS $0xb1,", swapX: "VPERMILPS $0xb1,", movOne: "VMOVSD",
		classes: []transpose{tNone, t64, t128, t4x4}},
}

const simdKMax = 5

func simdName(p simdPrec, k, class int) string {
	return fmt.Sprintf("simd%sK%dC%d", p.name, k, class)
}

// asm accumulates one assembly file.
type asm struct{ bytes.Buffer }

func (a *asm) ins(format string, args ...any) {
	fmt.Fprintf(a, "\t"+format+"\n", args...)
}

func (a *asm) label(name string) { fmt.Fprintf(a, "%s:\n", name) }

// General registers of every dense kernel.
const (
	rAmps  = "DI"  // state
	rT     = "R8"  // lane-group index
	rHi    = "R9"  // end of the range
	rMasks = "R10" // k sorted zero-insertion masks
	rOffs  = "R11" // 2^k chunk byte offsets
	rMat   = "SI"  // expanded matrix
	rBase  = "AX"  // address of chunk 0 of this group
	rTmp   = "BX"
	rOff   = "DX"
	rCol   = "CX"  // byte cursor through the gather buffer
	rRow   = "R12" // matrix cursor of the current row block
	rBuf   = "R13" // 32-byte-aligned gather buffer
)

// chunk is the memory operand of chunk j of the current group.
func (a *asm) chunk(j int) string {
	a.ins("MOVQ %d(%s), %s", 8*j, rOffs, rOff)
	return fmt.Sprintf("(%s)(%s*1)", rBase, rOff)
}

// transposeRegs turns the 2^c registers v (loaded chunks, or gate-index
// vectors about to be stored — each transpose is its own inverse) into the
// other form in place, using as many scratch registers.
func (a *asm) transposeRegs(t transpose, v, tmp []int) {
	switch t {
	case t64:
		a.ins("VUNPCKLPD Y%d, Y%d, Y%d", v[1], v[0], tmp[0])
		a.ins("VUNPCKHPD Y%d, Y%d, Y%d", v[1], v[0], v[1])
		a.ins("VMOVAPD Y%d, Y%d", tmp[0], v[0])
	case t128:
		a.ins("VPERM2F128 $0x20, Y%d, Y%d, Y%d", v[1], v[0], tmp[0])
		a.ins("VPERM2F128 $0x31, Y%d, Y%d, Y%d", v[1], v[0], v[1])
		a.ins("VMOVAPD Y%d, Y%d", tmp[0], v[0])
	case t4x4:
		a.ins("VUNPCKLPD Y%d, Y%d, Y%d", v[1], v[0], tmp[0])
		a.ins("VUNPCKHPD Y%d, Y%d, Y%d", v[1], v[0], tmp[1])
		a.ins("VUNPCKLPD Y%d, Y%d, Y%d", v[3], v[2], tmp[2])
		a.ins("VUNPCKHPD Y%d, Y%d, Y%d", v[3], v[2], tmp[3])
		a.ins("VPERM2F128 $0x20, Y%d, Y%d, Y%d", tmp[2], tmp[0], v[0])
		a.ins("VPERM2F128 $0x31, Y%d, Y%d, Y%d", tmp[2], tmp[0], v[2])
		a.ins("VPERM2F128 $0x20, Y%d, Y%d, Y%d", tmp[3], tmp[1], v[1])
		a.ins("VPERM2F128 $0x31, Y%d, Y%d, Y%d", tmp[3], tmp[1], v[3])
	}
}

// loadGroup loads the chunks holding gate indices [g·2^c, (g+1)·2^c) into
// v as gate-index vectors.
func (a *asm) loadGroup(p simdPrec, t transpose, g int, v, tmp []int) {
	for i := range v {
		a.ins("%s %s, Y%d", p.mov, a.chunk(g<<t.inChunk()|i), v[i])
	}
	a.transposeRegs(t, v, tmp)
}

// storeGroup is the inverse of loadGroup; it clobbers v.
func (a *asm) storeGroup(p simdPrec, t transpose, g int, v, tmp []int) {
	a.transposeRegs(t, v, tmp)
	for i := range v {
		a.ins("%s Y%d, %s", p.mov, v[i], a.chunk(g<<t.inChunk()|i))
	}
}

// column emits the two FMA sweeps of one matrix column over the rows
// accumulated in Y0…Y(rows−1): in holds the column's input vector, sw
// receives its swapped copy, m are scratch registers for the broadcast
// operands, and the column's operands start at off(base).
func (a *asm) column(p simdPrec, rows, in, sw int, m []int, base string, off int) {
	a.ins("%s Y%d, Y%d", p.swap, in, sw)
	for r := 0; r < rows; r++ {
		t := m[r%len(m)]
		a.ins("%s %d(%s), Y%d", p.bcast, off+r*p.fbytes, base, t)
		a.ins("%s Y%d, Y%d, Y%d", p.fma, in, t, r)
	}
	for r := 0; r < rows; r++ {
		t := m[r%len(m)]
		a.ins("%s %d(%s), Y%d", p.bcast2, off+(rows+2*r)*p.fbytes, base, t)
		a.ins("%s Y%d, Y%d, Y%d", p.fma, sw, t, r)
	}
}

func seq(lo, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = lo + i
	}
	return s
}

// genSIMDKernel emits the kernel of one (precision, k, class).
func genSIMDKernel(a *asm, p simdPrec, k, class int) {
	t := p.classes[class]
	dk := 1 << k
	grp := 1 << t.inChunk() // gate indices per transposed group
	rows := min(dk, 8)      // accumulators live at once
	colStride := 3 * rows * p.fbytes
	frame := 0
	flags := "NOSPLIT"
	if k >= 4 {
		frame = dk*32 + 32
		flags = "0"
	}
	name := simdName(p, k, class)
	fmt.Fprintf(a, "\n// func %s(amps *%s, lo, hi int, masks, offs *int, mat *%s)\n", name, p.ctype, p.ftype)
	fmt.Fprintf(a, "TEXT ·%s(SB), %s, $%d-48\n", name, flags, frame)
	a.ins("MOVQ amps+0(FP), %s", rAmps)
	a.ins("MOVQ lo+8(FP), %s", rT)
	a.ins("MOVQ hi+16(FP), %s", rHi)
	a.ins("MOVQ masks+24(FP), %s", rMasks)
	a.ins("MOVQ offs+32(FP), %s", rOffs)
	a.ins("MOVQ mat+40(FP), %s", rMat)
	if frame > 0 {
		a.ins("LEAQ buf-%d(SP), %s", frame, rBuf)
		a.ins("ADDQ $31, %s", rBuf)
		a.ins("ANDQ $-32, %s", rBuf)
	}
	a.ins("CMPQ %s, %s", rT, rHi)
	a.ins("JGE done")
	a.label("loop")
	// base = t with a zero inserted at every masked position, in chunks.
	a.ins("MOVQ %s, %s", rT, rBase)
	for i := 0; i < k; i++ {
		a.ins("MOVQ %s, %s", rBase, rTmp)
		a.ins("ANDQ %d(%s), %s", 8*i, rMasks, rTmp)
		a.ins("SUBQ %s, %s", rTmp, rBase)
		a.ins("LEAQ (%s)(%s*2), %s", rTmp, rBase, rBase)
	}
	a.ins("SHLQ $5, %s", rBase)
	a.ins("ADDQ %s, %s", rAmps, rBase)

	if k <= 3 {
		// Accumulators Y0…Y(dk−1); one group of inputs at a time in the
		// registers above them.
		in := seq(dk, grp)
		tmp := seq(dk+grp, max(grp, 3))
		for r := 0; r < dk; r++ {
			a.ins("%s Y%d, Y%d, Y%d", p.xor, r, r, r)
		}
		for g := 0; g < dk/grp; g++ {
			a.loadGroup(p, t, g, in, tmp)
			for i, reg := range in {
				a.column(p, dk, reg, tmp[0], tmp[1:3], rMat, (g*grp+i)*colStride)
			}
		}
		for g := 0; g < dk/grp; g++ {
			a.storeGroup(p, t, g, seq(g*grp, grp), seq(dk, grp))
		}
	} else {
		// Gather every input vector once.
		for g := 0; g < dk/grp; g++ {
			a.loadGroup(p, t, g, seq(0, grp), seq(grp, grp))
			for i := 0; i < grp; i++ {
				a.ins("VMOVAPD Y%d, %d(%s)", i, (g*grp+i)*32, rBuf)
			}
		}
		// Row blocks of 8 accumulators over a loop of 2^k columns.
		for rb := 0; rb < dk/rows; rb++ {
			for r := 0; r < rows; r++ {
				a.ins("%s Y%d, Y%d, Y%d", p.xor, r, r, r)
			}
			a.ins("LEAQ %d(%s), %s", rb*dk*colStride, rMat, rRow)
			a.ins("XORQ %s, %s", rCol, rCol)
			col := fmt.Sprintf("col%d", rb)
			a.label(col)
			a.ins("VMOVAPD (%s)(%s*1), Y8", rBuf, rCol)
			a.column(p, rows, 8, 9, seq(10, 4), rRow, 0)
			a.ins("ADDQ $%d, %s", colStride, rRow)
			a.ins("ADDQ $32, %s", rCol)
			a.ins("CMPQ %s, $%d", rCol, dk*32)
			a.ins("JLT %s", col)
			for g := 0; g < rows/grp; g++ {
				a.storeGroup(p, t, rb*rows/grp+g, seq(g*grp, grp), seq(8, grp))
			}
		}
	}
	a.ins("INCQ %s", rT)
	a.ins("CMPQ %s, %s", rT, rHi)
	a.ins("JLT loop")
	a.label("done")
	a.ins("VZEROUPPER")
	a.ins("RET")
}

// genSIMDDiag emits the segment replay of the diagonal sweep: for each
// {off, n, dx} segment, amps[off : off+n] *= dx as one multiply and one
// FMA per amplitude, re = ar·dr − ai·di, im = ai·dr + ar·di. The tail
// below one chunk runs the same two instructions on one amplitude, so an
// amplitude's product does not depend on where its segment starts or ends.
func genSIMDDiag(a *asm, p simdPrec) {
	name := "simdDiag" + p.name
	elem := 2 * p.fbytes
	segSize := 16 + elem
	fmt.Fprintf(a, "\n// func %s(base *%s, segs *diagSegment[%s], n int)\n", name, p.ctype, p.ctype)
	fmt.Fprintf(a, "TEXT ·%s(SB), NOSPLIT, $0-24\n", name)
	a.ins("MOVQ base+0(FP), DI")
	a.ins("MOVQ segs+8(FP), SI")
	a.ins("MOVQ n+16(FP), R9")
	a.ins("VMOVUPD ·simdNegRe%s(SB), Y15", p.name)
	a.label("seg")
	a.ins("TESTQ R9, R9")
	a.ins("JLE done")
	a.ins("MOVQ 0(SI), AX")
	a.ins("MOVQ 8(SI), CX")
	a.ins("%s 16(SI), Y1", p.bcast)
	a.ins("%s %d(SI), Y2", p.bcast, 16+p.fbytes)
	a.ins("%s Y15, Y2, Y2", p.xor) // (−di, di) per amplitude
	a.ins("SHLQ $%d, AX", bits.TrailingZeros(uint(elem)))
	a.ins("ADDQ DI, AX")
	a.label("vec")
	a.ins("CMPQ CX, $%d", p.lanes)
	a.ins("JLT tail")
	a.ins("%s (AX), Y3", p.mov)
	a.ins("%s Y3, Y4", p.swap)
	a.ins("%s Y1, Y3, Y3", p.mul)
	a.ins("%s Y2, Y4, Y3", p.fma)
	a.ins("%s Y3, (AX)", p.mov)
	a.ins("ADDQ $32, AX")
	a.ins("SUBQ $%d, CX", p.lanes)
	a.ins("JMP vec")
	a.label("tail")
	a.ins("TESTQ CX, CX")
	a.ins("JLE next")
	a.ins("%s (AX), X3", p.movOne)
	a.ins("%s X3, X4", p.swapX)
	a.ins("%s X1, X3, X3", p.mul)
	a.ins("%s X2, X4, X3", p.fma)
	a.ins("%s X3, (AX)", p.movOne)
	a.ins("ADDQ $%d, AX", elem)
	a.ins("DECQ CX")
	a.ins("JMP tail")
	a.label("next")
	a.ins("ADDQ $%d, SI", segSize)
	a.ins("DECQ R9")
	a.ins("JMP seg")
	a.label("done")
	a.ins("VZEROUPPER")
	a.ins("RET")
}

const simdBuildTag = "amd64 && !purego"

// generateSIMD returns the assembly file and the Go file declaring it.
func generateSIMD() (asmSrc, goSrc []byte) {
	var a asm
	fmt.Fprintf(&a, `// Code generated by cmd/kernelgen; DO NOT EDIT.

//go:build %s

#include "textflag.h"

// AVX2+FMA kernels (Sec. 3.1-3.2): dense gates k = 1..%d in both precisions
// for every class of low target positions, the diagonal segment replay, and
// the norm and entropy reductions. cmd/kernelgen/simd.go and reduce.go
// document the layout.

// Sign of the real element of every amplitude: (di, di) ^ mask = (-di, di).
DATA ·simdNegReF64+0(SB)/8, $0x8000000000000000
DATA ·simdNegReF64+8(SB)/8, $0
DATA ·simdNegReF64+16(SB)/8, $0x8000000000000000
DATA ·simdNegReF64+24(SB)/8, $0
GLOBL ·simdNegReF64(SB), RODATA|NOPTR, $32
DATA ·simdNegReF32+0(SB)/8, $0x0000000080000000
DATA ·simdNegReF32+8(SB)/8, $0x0000000080000000
DATA ·simdNegReF32+16(SB)/8, $0x0000000080000000
DATA ·simdNegReF32+24(SB)/8, $0x0000000080000000
GLOBL ·simdNegReF32(SB), RODATA|NOPTR, $32
`, simdBuildTag, simdKMax)
	genLnConsts(&a)

	var g bytes.Buffer
	fmt.Fprintf(&g, `// Code generated by cmd/kernelgen; DO NOT EDIT.

//go:build %s

package kernels

// Declarations of the kernels in simd_amd64.s, and the tables applySIMD
// and applySIMDF32 pick from: [k-1][class], the class being the bitmask of
// target positions below the chunk width.
`, simdBuildTag)
	for _, p := range simdPrecs {
		genSIMDDiag(&a, p)
		fmt.Fprintf(&g, "\n//go:noescape\nfunc simdDiag%s(base *%s, segs *diagSegment[%s], n int)\n", p.name, p.ctype, p.ctype)
		for _, entropy := range []bool{false, true} {
			genSIMDReduce(&a, p, entropy)
			fmt.Fprintf(&g, "\n//go:noescape\nfunc %s(amps *%s, n int) (norm, ent float64)\n", simdReduceName(p, entropy), p.ctype)
		}
		var table strings.Builder
		for k := 1; k <= simdKMax; k++ {
			table.WriteString("\t{")
			for class, t := range p.classes {
				if t.inChunk() > k {
					table.WriteString("nil, ")
					continue
				}
				genSIMDKernel(&a, p, k, class)
				fmt.Fprintf(&g, "\n//go:noescape\nfunc %s(amps *%s, lo, hi int, masks, offs *int, mat *%s)\n", simdName(p, k, class), p.ctype, p.ftype)
				table.WriteString(simdName(p, k, class) + ", ")
			}
			table.WriteString("},\n")
		}
		fmt.Fprintf(&g, "\nvar simd%s = [%d][%d]simdFunc%s{\n%s}\n", p.name, simdKMax, len(p.classes), p.name, table.String())
	}
	goSrc, err := format.Source(g.Bytes())
	if err != nil {
		log.Fatalf("kernelgen: generated stubs do not format: %v", err)
	}
	return a.Bytes(), goSrc
}
