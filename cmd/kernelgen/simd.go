package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math/bits"
	"strings"
)

// The vector kernels of Sec. 3.1–3.2, emitted as Go assembly at two widths
// from one description: AVX2+FMA on YMM registers and AVX-512 on ZMM
// registers. One register is a *chunk* of consecutive state: 32 bytes (2
// complex128 or 4 complex64) or 64 bytes (4 or 8). A kernel works in chunk
// space: the caller hands it k sorted zero-insertion masks and 2^k byte
// offsets, and every iteration touches the 2^k chunks base+offs[j]. The
// SIMD lanes are base indices, never gate indices, so every lane runs the
// same instruction stream and the result of a lane does not depend on which
// lane it is — nor on how many lanes there are: per amplitude the two widths
// execute the same FMAs in the same order and agree bit for bit.
//
// When every target sits above the chunk (class 0) chunk j simply holds
// gate index j for lanes consecutive base indices. When c targets sit
// inside the chunk (the class is their bitmask) the chunk holds 2^c gate
// indices and fewer lanes; the caller then makes the c lowest free bits
// above the chunk the low bits of j, and 2^c chunks are transposed in
// registers into 2^c gate-index vectors on load and back on store. The YMM
// kernels have one body per class, transposed with unpacks and half
// permutes. The ZMM kernels have one body per *count* c and take the class
// as data: transposing is c rounds of exchanging one in-chunk bit with one
// register bit, each a pair of two-source permutes (VPERMT2PD) whose index
// vectors the caller computes from the class and appends to offs.
//
// Per matrix column the update is the paper's operand split,
//
//	acc_r += [mR …]·a;  acc_r += [−mI, mI …]·swap(a),
//
// two FMAs per row against a matrix pre-expanded in access order (package
// kernels, expandMatrix): row blocks of min(2^k, rows) rows — 8 of the 16
// YMM registers, 16 of the 32 ZMM registers — per column the block's mR
// scalars and then its (−mI, mI) pairs. The mR operand is a broadcast load
// (YMM) or an embedded broadcast of the FMA itself (ZMM). k ≤ 3 keeps all
// 2^k accumulators in registers and streams the inputs through; k ≥ 4
// gathers the transposed inputs into a stack buffer once and walks the row
// blocks — unrolled in the YMM kernels, as loops over groups and row blocks
// in the ZMM kernels, which keeps the second width at the size of the first.
// The ZMM kernels also compute a group's base address with one PDEP where the
// YMM kernels insert the k zero bits one at a time, and prefetch the chunks
// of a group a few iterations ahead: neither touches a lane's arithmetic.

// simdWidth is one vector register file.
type simdWidth struct {
	tag   string // of the file and of every symbol: "" or "512"
	isa   string
	reg   string // register prefix
	bytes int    // of a chunk
	rows  int    // accumulators live at once, at most
}

var (
	ymm = simdWidth{tag: "", isa: "AVX2+FMA", reg: "Y", bytes: 32, rows: 8}
	zmm = simdWidth{tag: "512", isa: "AVX-512", reg: "Z", bytes: 64, rows: 16}
)

// simdPrec is one element type's instruction set at one width.
type simdPrec struct {
	simdWidth
	name    string // "F64" or "F32"
	ctype   string // amplitude type of the Go stubs
	ftype   string // expanded-matrix element type
	fbytes  int    // bytes per real
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

// lanes is the number of amplitudes in a chunk.
func (p simdPrec) lanes() int { return p.bytes / (2 * p.fbytes) }

// sym is the symbol prefix of the set's kernels: simdF64…, simd512F64….
func (p simdPrec) sym() string { return "simd" + p.tag }

// transpose is how the 2^c chunks of one class become gate-index vectors.
type transpose int

const (
	tNone  transpose = iota // class 0: chunks are gate-index vectors already
	t64                     // target at the even/odd 64-bit element: unpack pairs
	t128                    // target selects the 128-bit half: permute halves
	t4x4                    // both: a 4×4 transpose of 64-bit elements
	tPerm1                  // ZMM, c = 1, 2, 3 targets at positions given as data:
	tPerm2                  // c rounds of two-source permutes
	tPerm3
)

func (t transpose) inChunk() int { return []int{0, 1, 1, 2, 1, 2, 3}[t] }

// zmmIndex is the first of the registers Z26…Z31 that hold the permute
// index vectors of a ZMM kernel, two per in-chunk target.
const zmmIndex = 26

var simdSets = [][]simdPrec{
	{
		{simdWidth: ymm, name: "F64", ctype: "complex128", ftype: "float64", fbytes: 8,
			mov: "VMOVUPD", fma: "VFMADD231PD", mul: "VMULPD", xor: "VXORPD",
			bcast: "VBROADCASTSD", bcast2: "VBROADCASTF128",
			swap: "VPERMILPD $5,", swapX: "VPERMILPD $1,", movOne: "VMOVUPD",
			classes: []transpose{tNone, t128}},
		{simdWidth: ymm, name: "F32", ctype: "complex64", ftype: "float32", fbytes: 4,
			mov: "VMOVUPS", fma: "VFMADD231PS", mul: "VMULPS", xor: "VXORPS",
			bcast: "VBROADCASTSS", bcast2: "VBROADCASTSD",
			swap: "VPERMILPS $0xb1,", swapX: "VPERMILPS $0xb1,", movOne: "VMOVSD",
			classes: []transpose{tNone, t64, t128, t4x4}},
	},
	{
		{simdWidth: zmm, name: "F64", ctype: "complex128", ftype: "float64", fbytes: 8,
			mov: "VMOVUPD", fma: "VFMADD231PD", mul: "VMULPD", xor: "VXORPD",
			bcast: "VBROADCASTSD", bcast2: "VBROADCASTF64X2",
			swap:    "VPERMILPD $0x55,",
			classes: []transpose{tNone, tPerm1, tPerm2}},
		{simdWidth: zmm, name: "F32", ctype: "complex64", ftype: "float32", fbytes: 4,
			mov: "VMOVUPS", fma: "VFMADD231PS", mul: "VMULPS", xor: "VXORPS",
			bcast: "VBROADCASTSS", bcast2: "VBROADCASTSD",
			swap:    "VPERMILPS $0xb1,",
			classes: []transpose{tNone, tPerm1, tPerm2, tPerm3}},
	},
}

const simdKMax = 5

// prefetchAhead is how far ahead of the lane group it is updating a ZMM
// kernel prefetches, in chunks per stream times 2^k streams: 64 chunks,
// 4 KiB of state.
const prefetchAhead = 64

func simdName(p simdPrec, k, class int) string {
	return fmt.Sprintf("%s%sK%dC%d", p.sym(), p.name, k, class)
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
	rTmp   = "BX"  // scratch; in a ZMM loop, the cursor through offs
	rOff   = "DX"
	rCol   = "CX"  // byte cursor through the gather buffer
	rRow   = "R12" // matrix cursor of the current row block
	rBuf   = "R13" // chunk-aligned gather buffer
)

// chunk is the memory operand of the chunk whose byte offset is the j-th
// entry from cursor, rOffs itself outside the ZMM loops.
func (a *asm) chunk(cursor string, j int) string { return a.chunkAt(cursor, j, rBase) }

// chunkAt is chunk in the group whose chunk 0 is at base.
func (a *asm) chunkAt(cursor string, j int, base string) string {
	a.ins("MOVQ %d(%s), %s", 8*j, cursor, rOff)
	return fmt.Sprintf("(%s)(%s*1)", base, rOff)
}

// transposeRegs turns the 2^c registers v (loaded chunks, or gate-index
// vectors about to be stored — each transpose is its own inverse) into the
// other form in place, using as many scratch registers (one, for ZMM).
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
	case tPerm1, tPerm2, tPerm3:
		// Round s exchanges in-chunk target s with bit s of the register
		// number: of a pair (lo, hi) the new lo takes the target-clear
		// amplitudes of both by index vector 2s, the new hi the target-set
		// ones by 2s+1 (its tables are hi, then the old lo).
		for s := 0; s < t.inChunk(); s++ {
			for i, lo := range v {
				if i>>s&1 != 0 {
					continue
				}
				hi := v[i|1<<s]
				a.ins("VMOVAPD Z%d, Z%d", lo, tmp[0])
				a.ins("VPERMT2PD Z%d, Z%d, Z%d", hi, zmmIndex+2*s, lo)
				a.ins("VPERMT2PD Z%d, Z%d, Z%d", tmp[0], zmmIndex+2*s+1, hi)
			}
		}
	}
}

// loadGroup loads the chunks whose offsets are entries j, j+1, … from
// cursor into v as gate-index vectors.
func (a *asm) loadGroup(p simdPrec, t transpose, cursor string, j int, v, tmp []int) {
	for i := range v {
		a.ins("%s %s, %s%d", p.mov, a.chunk(cursor, j+i), p.reg, v[i])
	}
	a.transposeRegs(t, v, tmp)
}

// storeGroup is the inverse of loadGroup; it clobbers v.
func (a *asm) storeGroup(p simdPrec, t transpose, cursor string, j int, v, tmp []int) {
	a.transposeRegs(t, v, tmp)
	for i := range v {
		a.ins("%s %s%d, %s", p.mov, p.reg, v[i], a.chunk(cursor, j+i))
	}
}

// column emits the two FMA sweeps of one matrix column over the rows
// accumulated in registers 0…rows−1: in holds the column's input vector, sw
// receives its swapped copy, m are scratch registers for the broadcast
// operands, and the column's operands start at off(base).
func (a *asm) column(p simdPrec, rows, in, sw int, m []int, base string, off int) {
	r := p.reg
	a.ins("%s %s%d, %s%d", p.swap, r, in, r, sw)
	for i := 0; i < rows; i++ {
		if p.simdWidth == zmm {
			a.ins("%s.BCST %d(%s), %s%d, %s%d", p.fma, off+i*p.fbytes, base, r, in, r, i)
			continue
		}
		t := m[i%len(m)]
		a.ins("%s %d(%s), %s%d", p.bcast, off+i*p.fbytes, base, r, t)
		a.ins("%s %s%d, %s%d, %s%d", p.fma, r, in, r, t, r, i)
	}
	for i := 0; i < rows; i++ {
		t := m[i%len(m)]
		a.ins("%s %d(%s), %s%d", p.bcast2, off+(rows+2*i)*p.fbytes, base, r, t)
		a.ins("%s %s%d, %s%d, %s%d", p.fma, r, sw, r, t, r, i)
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
	rows := min(dk, p.rows) // accumulators live at once
	colStride := 3 * rows * p.fbytes
	r := p.reg
	frame := 0
	flags := "NOSPLIT"
	if k >= 4 {
		frame = dk*p.bytes + p.bytes
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
		a.ins("ADDQ $%d, %s", p.bytes-1, rBuf)
		a.ins("ANDQ $-%d, %s", p.bytes, rBuf)
	}
	for i := 0; i < 2*t.inChunk() && t >= tPerm1; i++ {
		// The index vectors follow the 2^k offsets.
		a.ins("VMOVDQU64 %d(%s), Z%d", 8*dk+64*i, rOffs, zmmIndex+i)
	}
	a.ins("CMPQ %s, %s", rT, rHi)
	a.ins("JGE done")
	a.label("loop")
	// base = t with a zero inserted at every masked position, in chunks:
	// one mask and two adds a position, or (ZMM: every AVX-512 CPU has BMI2)
	// one PDEP under the mask that follows the k insertion masks.
	insertZeros := func(t, base string) {
		if p.simdWidth == zmm {
			a.ins("PDEPQ %d(%s), %s, %s", 8*k, rMasks, t, base)
		} else {
			a.ins("MOVQ %s, %s", t, base)
			for i := 0; i < k; i++ {
				a.ins("MOVQ %s, %s", base, rTmp)
				a.ins("ANDQ %d(%s), %s", 8*i, rMasks, rTmp)
				a.ins("SUBQ %s, %s", rTmp, base)
				a.ins("LEAQ (%s)(%s*2), %s", rTmp, base, base)
			}
		}
		a.ins("SHLQ $%d, %s", bits.TrailingZeros(uint(p.bytes)), base)
		a.ins("ADDQ %s, %s", rAmps, base)
	}
	insertZeros(rT, rBase)
	if p.simdWidth == zmm {
		// Streaming a state from DRAM, 2^k strided streams of short runs
		// leave the hardware prefetcher behind and the out-of-order window
		// holds two lane groups' misses (1 GiB: k = 3 at 88 ms a pass, half
		// the rate of k = 1): ask for the chunks of the group
		// prefetchAhead/2^k iterations on, about 4 KiB of state ahead (50 ms).
		a.ins("LEAQ %d(%s), %s", max(1, prefetchAhead>>k), rT, rTmp)
		insertZeros(rTmp, rTmp)
		for j := 0; j < dk; j++ {
			a.ins("PREFETCHT0 %s", a.chunkAt(rOffs, j, rTmp))
		}
	}

	switch {
	case k <= 3:
		// Accumulators 0…dk−1; one group of inputs at a time in the
		// registers above them.
		in := seq(dk, grp)
		tmp := seq(dk+grp, max(grp, 3))
		for i := 0; i < dk; i++ {
			a.ins("%s %s%d, %s%d, %s%d", p.xor, r, i, r, i, r, i)
		}
		for g := 0; g < dk/grp; g++ {
			a.loadGroup(p, t, rOffs, g*grp, in, tmp)
			for i, reg := range in {
				a.column(p, dk, reg, tmp[0], tmp[1:3], rMat, (g*grp+i)*colStride)
			}
		}
		for g := 0; g < dk/grp; g++ {
			a.storeGroup(p, t, rOffs, g*grp, seq(g*grp, grp), seq(dk, grp))
		}
	case p.simdWidth == ymm:
		// Gather every input vector once.
		for g := 0; g < dk/grp; g++ {
			a.loadGroup(p, t, rOffs, g*grp, seq(0, grp), seq(grp, grp))
			for i := 0; i < grp; i++ {
				a.ins("VMOVAPD Y%d, %d(%s)", i, (g*grp+i)*32, rBuf)
			}
		}
		// Row blocks of 8 accumulators over a loop of 2^k columns.
		for rb := 0; rb < dk/rows; rb++ {
			for i := 0; i < rows; i++ {
				a.ins("%s Y%d, Y%d, Y%d", p.xor, i, i, i)
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
				a.storeGroup(p, t, rOffs, rb*rows+g*grp, seq(g*grp, grp), seq(8, grp))
			}
		}
	default:
		// Gather every input vector once, four chunks or one group a turn.
		per := max(grp, 4)
		a.ins("MOVQ %s, %s", rOffs, rTmp)
		a.ins("XORQ %s, %s", rCol, rCol)
		a.label("gather")
		for g := 0; g < per; g += grp {
			a.loadGroup(p, t, rTmp, g, seq(g, grp), seq(per, 1))
		}
		for i := 0; i < per; i++ {
			a.ins("VMOVAPD Z%d, %d(%s)(%s*1)", i, 64*i, rBuf, rCol)
		}
		a.ins("ADDQ $%d, %s", 8*per, rTmp)
		a.ins("ADDQ $%d, %s", 64*per, rCol)
		a.ins("CMPQ %s, $%d", rCol, dk*64)
		a.ins("JLT gather")
		// Row blocks of 16 accumulators over a loop of 2^k columns; the
		// matrix cursor runs on from one block into the next.
		a.ins("MOVQ %s, %s", rOffs, rTmp)
		a.ins("MOVQ %s, %s", rMat, rRow)
		a.label("block")
		for i := 0; i < rows; i++ {
			a.ins("%s Z%d, Z%d, Z%d", p.xor, i, i, i)
		}
		a.ins("XORQ %s, %s", rCol, rCol)
		a.label("col")
		a.ins("VMOVAPD (%s)(%s*1), Z16", rBuf, rCol)
		a.column(p, rows, 16, 17, seq(18, 4), rRow, 0)
		a.ins("ADDQ $%d, %s", colStride, rRow)
		a.ins("ADDQ $64, %s", rCol)
		a.ins("CMPQ %s, $%d", rCol, dk*64)
		a.ins("JLT col")
		for g := 0; g < rows; g += grp {
			a.storeGroup(p, t, rTmp, g, seq(g, grp), seq(16, 1))
		}
		if dk > rows {
			a.ins("ADDQ $%d, %s", 8*rows, rTmp)
			a.ins("MOVQ %s, %s", rTmp, rOff)
			a.ins("SUBQ %s, %s", rOffs, rOff)
			a.ins("CMPQ %s, $%d", rOff, 8*dk)
			a.ins("JLT block")
		}
	}
	a.ins("INCQ %s", rT)
	a.ins("CMPQ %s, %s", rT, rHi)
	a.ins("JLT loop")
	a.label("done")
	a.ins("VZEROUPPER")
	a.ins("RET")
}

// diagWindow is the unit of the diagonal sweep's window form, 2^diagRunMin
// amplitudes (package kernels, Diagonal).
const diagWindow = 64

// diagHead opens a diagonal kernel of either form, which multiply amplitude
// i by the entry the bits of i at the gate's positions select — one multiply
// and one FMA per part, re = ar·dr − ai·di, im = ai·dr + ar·di — and leave an
// amplitude whose entry is exactly 1 untouched, bit for bit. Both walk units
// that share a row of an entry table, row x = PEXT(i, sel) of the unit's
// first index i, skipping a unit whose row mask masks[x] is 0 (all ones).
// The head loads the arguments into DI, R8, R9, R10, R11, SI and R12 and
// runs the loop over units as far as x in BX.
func diagHead(a *asm, p simdPrec, name string) {
	fmt.Fprintf(a, "\n// func %s(amps *%s, base, units, unit, sel int, tbl *%s, masks *uint64)\n", name, p.ctype, p.ctype)
	fmt.Fprintf(a, "TEXT ·%s(SB), NOSPLIT, $0-56\n", name)
	for i, arg := range []string{"amps DI", "base R8", "units R9", "unit R10", "sel R11", "tbl SI", "masks R12"} {
		f := strings.Fields(arg)
		a.ins("MOVQ %s+%d(FP), %s", f[0], 8*i, f[1])
	}
	a.ins("VMOVUPD ·simdNegRe%s(SB), Y15", p.name)
	a.label("unit")
	a.ins("TESTQ R9, R9")
	a.ins("JLE done")
	a.ins("PEXTQ R11, R8, BX")
}

// genSIMDDiagRun emits the run form, whose unit is a run of one entry
// tbl[x] (and Scale's, one unit under an all-ones mask), multiplied a chunk
// at a time while a chunk is left — ZMM chunks first in the ZMM kernel, then
// YMM chunks in both — and below one YMM chunk one amplitude at a time with
// the same two instructions, so a product does not depend on where its unit
// starts or ends. narrow is p's YMM twin (p itself in the YMM file). (A
// write-masked ZMM tail was measured: on one- and two-amplitude units its
// stores defeat store forwarding and the loop runs 5× slower.)
func genSIMDDiagRun(a *asm, p, narrow simdPrec) {
	shift := bits.TrailingZeros(uint(2 * p.fbytes))
	steps := []simdPrec{p}
	if p.simdWidth != narrow.simdWidth {
		steps = append(steps, narrow)
	}
	diagHead(a, p, p.sym()+"DiagRun"+p.name)
	a.ins("MOVQ DI, AX")
	a.ins("MOVQ R10, CX")
	a.ins("ADDQ R10, R8")
	a.ins("MOVQ R10, DX")
	a.ins("SHLQ $%d, DX", shift)
	a.ins("ADDQ DX, DI")
	a.ins("CMPQ (R12)(BX*8), $0")
	a.ins("JEQ next")
	a.ins("SHLQ $%d, BX", shift)
	a.ins("ADDQ SI, BX")
	for i, w := range steps {
		r, vec, next := w.reg, "vec"+w.tag, "tail"
		if i+1 < len(steps) {
			// A unit below one chunk of this width never touches its
			// registers: it starts at the next width's broadcasts.
			next = "vec" + steps[i+1].tag
			a.ins("CMPQ CX, $%d", w.lanes())
			a.ins("JLT bcast%s", steps[i+1].tag)
		}
		if i > 0 {
			a.label("bcast" + w.tag)
		}
		a.ins("%s (BX), %s1", w.bcast, r)
		a.ins("%s %d(BX), %s2", w.bcast, w.fbytes, r)
		if w.simdWidth == zmm {
			// The sign mask at this width, only where a unit needs it: a
			// call with short units alone executes no ZMM instruction.
			a.ins("VBROADCASTF64X4 ·simdNegRe%s(SB), Z14", p.name)
			a.ins("%s Z14, Z2, Z2", w.xor)
		} else {
			a.ins("%s %s15, %s2, %s2", w.xor, r, r, r) // (−di, di) per amplitude
		}
		a.label(vec)
		a.ins("CMPQ CX, $%d", w.lanes())
		a.ins("JLT %s", next)
		if w.simdWidth == zmm {
			// One load a line leaves the hardware prefetcher behind on a
			// state streamed from DRAM (1 GiB: 64 ms a sweep against the
			// YMM loop's 48; with the hint, 39).
			a.ins("PREFETCHT0 1024(AX)")
		}
		a.ins("%s (AX), %s3", w.mov, r)
		a.ins("%s %s3, %s4", w.swap, r, r)
		a.ins("%s %s1, %s3, %s3", w.mul, r, r, r)
		a.ins("%s %s2, %s4, %s3", w.fma, r, r, r)
		a.ins("%s %s3, (AX)", w.mov, r)
		a.ins("ADDQ $%d, AX", w.bytes)
		a.ins("SUBQ $%d, CX", w.lanes())
		a.ins("JMP %s", vec)
	}
	a.label("tail")
	a.ins("TESTQ CX, CX")
	a.ins("JLE next")
	a.ins("%s (AX), X3", narrow.movOne)
	a.ins("%s X3, X4", narrow.swapX)
	a.ins("%s X1, X3, X3", narrow.mul)
	a.ins("%s X2, X4, X3", narrow.fma)
	a.ins("%s X3, (AX)", narrow.movOne)
	a.ins("ADDQ $%d, AX", 2*p.fbytes)
	a.ins("DECQ CX")
	a.ins("JMP tail")
	a.label("next")
	a.ins("DECQ R9")
	a.ins("JMP unit")
	a.label("done")
	a.ins("VZEROUPPER")
	a.ins("RET")
}

// genSIMDDiagWin emits the window form: per chunk, the lanes' entries are
// spread over their amplitudes' two elements in registers (VMOVDDUP and
// VPERMILPD, VMOVSLDUP and VMOVSHDUP), the chunk is multiplied as in the run
// form, and only the lanes whose mask bit is set are written back — by an
// opmask store on ZMM (a bit per 64-bit element: per complex64 lane, per
// lane doubled by PDEP for complex128), by a blend with the loaded chunk on
// YMM (simdBlend*). Four chunks, or one, with no lane to write are skipped.
func genSIMDDiagWin(a *asm, p simdPrec) {
	elem, r, lanes := 2*p.fbytes, p.reg, p.lanes()
	group := 4 * lanes // window lanes a turn of the loop takes
	dupIm := "VMOVSHDUP"
	if p.fbytes == 8 {
		dupIm = fmt.Sprintf("VPERMILPD $%#x,", 1<<(p.bytes/8)-1)
	}
	dupRe := map[int]string{4: "VMOVSLDUP", 8: "VMOVDDUP"}[p.fbytes]
	diagHead(a, p, p.sym()+"DiagWin"+p.name)
	a.ins("MOVQ (R12)(BX*8), DX")
	a.ins("TESTQ DX, DX")
	a.ins("JEQ skip")
	a.ins("SHLQ $%d, BX", bits.TrailingZeros(uint(diagWindow*elem)))
	a.ins("ADDQ SI, BX")
	a.ins("MOVQ $%d, CX", diagWindow/group)
	sign := 15
	if p.simdWidth == zmm {
		sign = 14
		a.ins("VBROADCASTF64X4 ·simdNegRe%s(SB), Z14", p.name)
	} else {
		a.ins("LEAQ ·simdBlend%s(SB), R13", p.name)
	}
	a.label("group")
	a.ins("MOVQ DX, R10")
	a.ins("SHRQ $%d, DX", group)
	if group == 32 {
		a.ins("MOVL R10, R10")
		a.ins("TESTQ R10, R10")
	} else {
		a.ins("ANDQ $%d, R10", 1<<group-1)
	}
	a.ins("JEQ nextgroup")
	// Ask for the group's lines in the next window (see the run form) where
	// this one has a lane to write.
	for l := 0; l < 4*p.bytes; l += 64 {
		a.ins("PREFETCHT0 %d(DI)", diagWindow*elem+l)
	}
	if p.simdWidth == zmm {
		if p.fbytes == 8 {
			a.ins("MOVQ $0x5555555555555555, AX")
			a.ins("PDEPQ AX, R10, R10")
			a.ins("LEAQ (R10)(R10*2), R10")
		}
	}
	for c := 0; c < 4; c++ {
		off, skip := c*p.bytes, fmt.Sprintf("chunk%d", c)
		if p.simdWidth == zmm {
			a.ins("KMOVB R10, K1")
			a.ins("SHRQ $8, R10")
			a.ins("KTESTB K1, K1")
			a.ins("JEQ %s", skip)
		} else {
			a.ins("MOVQ R10, AX")
			a.ins("SHRQ $%d, R10", lanes)
			a.ins("ANDQ $%d, AX", 1<<lanes-1)
			a.ins("JEQ %s", skip)
			a.ins("SHLQ $5, AX")
			a.ins("VMOVDQU (R13)(AX*1), Y6")
		}
		a.ins("%s %d(DI), %s3", p.mov, off, r)
		a.ins("%s %d(BX), %s1", dupRe, off, r)
		a.ins("%s %d(BX), %s2", dupIm, off, r)
		a.ins("%s %s%d, %s2, %s2", p.xor, r, sign, r, r)
		a.ins("%s %s3, %s4", p.swap, r, r)
		if p.simdWidth == zmm {
			a.ins("%s %s1, %s3, %s3", p.mul, r, r, r)
			a.ins("%s %s2, %s4, %s3", p.fma, r, r, r)
			a.ins("VMOVUPD Z3, K1, %d(DI)", off)
		} else {
			a.ins("%s %s1, %s3, %s5", p.mul, r, r, r)
			a.ins("%s %s2, %s4, %s5", p.fma, r, r, r)
			a.ins("VBLENDVPD Y6, Y5, Y3, Y3")
			a.ins("%s Y3, %d(DI)", p.mov, off)
		}
		a.label(skip)
	}
	a.label("nextgroup")
	a.ins("ADDQ $%d, DI", 4*p.bytes)
	a.ins("ADDQ $%d, BX", 4*p.bytes)
	a.ins("DECQ CX")
	a.ins("JNZ group")
	a.ins("JMP step")
	a.label("skip")
	a.ins("ADDQ $%d, DI", diagWindow*elem)
	a.label("step")
	a.ins("ADDQ $%d, R8", diagWindow)
	a.ins("DECQ R9")
	a.ins("JMP unit")
	a.label("done")
	a.ins("VZEROUPPER")
	a.ins("RET")
}

const simdBuildTag = "amd64 && !purego"

// genFile is one generated file of package kernels.
type genFile struct {
	name string
	src  []byte
}

// generateSIMD returns the assembly file of each width and the Go file
// declaring them.
func generateSIMD() []genFile {
	var files []genFile
	var g bytes.Buffer
	fmt.Fprintf(&g, `// Code generated by cmd/kernelgen; DO NOT EDIT.

//go:build %s

package kernels

// Declarations of the kernels in simd_amd64.s (AVX2+FMA) and
// simd512_amd64.s (AVX-512), and the tables prepareSIMD picks from:
// [k-1][class], the class being the bitmask of target positions below the
// chunk width for the YMM kernels and the number of them for the ZMM ones.
`, simdBuildTag)
	for _, set := range simdSets {
		var a asm
		w := set[0].simdWidth
		fmt.Fprintf(&a, `// Code generated by cmd/kernelgen; DO NOT EDIT.

//go:build %s

#include "textflag.h"

// %s kernels (Sec. 3.1-3.2): dense gates k = 1..%d in both precisions
// for every class of low target positions, the diagonal window and run
// loops, and the norm and entropy reductions. cmd/kernelgen/simd.go and reduce.go
// document the layout.
`, simdBuildTag, w.isa, simdKMax)
		if w == ymm {
			genConsts(&a)
		}
		for i, p := range set {
			genSIMDDiagRun(&a, p, simdSets[0][i])
			genSIMDDiagWin(&a, p)
			for _, form := range []string{"Run", "Win"} {
				fmt.Fprintf(&g, "\n//go:noescape\nfunc %sDiag%s%s(amps *%s, base, units, unit, sel int, tbl *%s, masks *uint64)\n", p.sym(), form, p.name, p.ctype, p.ctype)
			}
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
			fmt.Fprintf(&g, "\nvar %s%s = [%d][%d]simdFunc%s{\n%s}\n", p.sym(), p.name, simdKMax, len(p.classes), p.name, table.String())
		}
		files = append(files, genFile{"simd" + w.tag + "_amd64.s", a.Bytes()})
	}
	stubs, err := format.Source(g.Bytes())
	if err != nil {
		log.Fatalf("kernelgen: generated stubs do not format: %v", err)
	}
	return append(files, genFile{"simd_amd64.go", stubs})
}

// genConsts emits the data both widths read: the sign masks of the diagonal
// kernels and the constants of the entropy kernels.
func genConsts(a *asm) {
	fmt.Fprintf(a, `
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
`)
	// The YMM window loop's blend masks: entry e of a chunk selects the 64-bit
	// elements of lane j where bit j of e is set (two a complex128, one a
	// complex64).
	for _, p := range simdSets[0] {
		for e := 0; e < 1<<p.lanes(); e++ {
			for q := 0; q < 4; q++ {
				fmt.Fprintf(a, "DATA ·simdBlend%s+%d(SB)/8, $%d\n", p.name, 32*e+8*q, -(e >> (q * p.lanes() / 4) & 1))
			}
		}
		fmt.Fprintf(a, "GLOBL ·simdBlend%s(SB), RODATA|NOPTR, $%d\n", p.name, 32<<p.lanes())
	}
	genLnConsts(a)
}
