package main

import (
	"fmt"
	"math"
)

// The result reductions of Sec. 4.2.2 — Σ|α|² and −Σ|α|²·ln|α|² — emitted
// as AVX2+FMA assembly. One iteration takes four amplitudes to four
// probabilities p, one per 64-bit lane, and adds them to per-lane
// accumulators; the caller hands in a multiple of four and pads a tail
// with zero amplitudes, which add +0 to both sums. The single-precision
// kernels widen on load (VCVTPS2PD) and are otherwise the same code, so
// both precisions accumulate in float64.
//
// ln p is FreeBSD's e_log.c (the algorithm of Go's math.Log), four lanes
// at a time:
//
//	p = 2^k·m, m ∈ [√½, √2);  f = m − 1;  s = f/(2+f);  z = s²;  w = z²
//	R = z·(Lg1 + w·(Lg3 + w·(Lg5 + w·Lg7))) + w·(Lg2 + w·(Lg4 + w·Lg6))
//	ln p = k·ln2hi − ((f²/2 − (s·(f²/2 + R) + k·ln2lo)) − f)
//
// The exponent/mantissa split is integer arithmetic on the bits of p, a
// subnormal p is first scaled by 2^54, and nothing is branched on: p = 0
// reaches −0·(k ln 2) = +0 with a finite k, p = +Inf reaches
// −Inf·(1024 ln 2), and a NaN stays a NaN through every step.

// lnConsts are the 64-bit constants of the entropy kernels, in the order
// they sit (each replicated across the four lanes) in ·simdLnConst.
var lnConsts = []struct {
	name string
	bits uint64
}{
	{"tiny", math.Float64bits(0x1p-1022)}, // below this p is subnormal (or zero)
	{"scale", math.Float64bits(0x1p54)},
	{"kscale", math.Float64bits(54)},
	{"off", 0x3FF0000000000000 - 0x3FE6A09E667F3BCD}, // bits(1) − bits(√½)
	{"magic", math.Float64bits(0x1p52)},              // 2^52 | j is the double 2^52 + j
	{"bias", math.Float64bits(0x1p52 + 1023)},
	{"mant", 0x000FFFFFFFFFFFFF},
	{"sqrthalf", 0x3FE6A09E667F3BCD},
	{"one", math.Float64bits(1)},
	{"two", math.Float64bits(2)},
	{"half", math.Float64bits(0.5)},
	{"ln2hi", 0x3FE62E42FEE00000},
	{"ln2lo", 0x3DEA39EF35793C76},
	{"lg1", 0x3FE5555555555593},
	{"lg2", 0x3FD999999997FA04},
	{"lg3", 0x3FD2492494229359},
	{"lg4", 0x3FCC71C51D8E78AF},
	{"lg5", 0x3FC7466496CB03DE},
	{"lg6", 0x3FC39A09D078C69F},
	{"lg7", 0x3FC2F112DF3E5244},
}

// lnConst is the memory operand of a constant's four-lane copy.
func lnConst(name string) string {
	for i, c := range lnConsts {
		if c.name == name {
			return fmt.Sprintf("·simdLnConst+%d(SB)", 32*i)
		}
	}
	panic("kernelgen: no constant " + name)
}

// genLnConsts emits the constant table.
func genLnConsts(a *asm) {
	fmt.Fprintf(a, "\n// Constants of the entropy kernels, four lanes each:")
	for i, c := range lnConsts {
		if i%8 == 0 {
			fmt.Fprintf(a, "\n//")
		}
		fmt.Fprintf(a, " %s", c.name)
	}
	fmt.Fprintf(a, ".\n")
	for i, c := range lnConsts {
		for lane := 0; lane < 4; lane++ {
			fmt.Fprintf(a, "DATA ·simdLnConst+%d(SB)/8, $%#016x\n", 32*i+8*lane, c.bits)
		}
	}
	fmt.Fprintf(a, "GLOBL ·simdLnConst(SB), RODATA|NOPTR, $%d\n", 32*len(lnConsts))
}

func simdReduceName(p simdPrec, entropy bool) string {
	if entropy {
		return "simdNormEntropy" + p.name
	}
	return "simdNorm" + p.name
}

// genSIMDReduce emits the reduction of n amplitudes, n a positive multiple
// of four: Y0 accumulates p per lane and, with entropy, Y1 accumulates
// −p·ln p; the lanes (l0, l1, l2, l3) are summed as (l0+l2) + (l1+l3).
func genSIMDReduce(a *asm, p simdPrec, entropy bool) {
	name := simdReduceName(p, entropy)
	fmt.Fprintf(a, "\n// func %s(amps *%s, n int) (norm, ent float64)\n", name, p.ctype)
	fmt.Fprintf(a, "TEXT ·%s(SB), NOSPLIT, $0-32\n", name)
	a.ins("MOVQ amps+0(FP), AX")
	a.ins("MOVQ n+8(FP), CX")
	a.ins("VXORPD Y0, Y0, Y0")
	a.ins("VXORPD Y1, Y1, Y1")
	a.label("loop")
	a.ins("PREFETCHT0 4096(AX)")
	// Y2 = (p0, p2, p1, p3): the squares of two chunks of two amplitudes,
	// added in pairs — one multiply and one add per element, as in Go.
	if p.fbytes == 8 {
		a.ins("VMOVUPD (AX), Y2")
		a.ins("VMOVUPD 32(AX), Y3")
	} else {
		a.ins("VCVTPS2PD (AX), Y2")
		a.ins("VCVTPS2PD 16(AX), Y3")
	}
	a.ins("VMULPD Y2, Y2, Y2")
	a.ins("VMULPD Y3, Y3, Y3")
	a.ins("VHADDPD Y3, Y2, Y2")
	a.ins("VADDPD Y2, Y0, Y0")
	if entropy {
		// Y4 = x: p, or p·2^54 where p is subnormal, Y3 = 54 in those
		// lanes. The squared modulus of a complex64 is zero or at least
		// 2^-298, so single precision skips the step.
		x := "Y2"
		if p.fbytes == 8 {
			x = "Y4"
			a.ins("VCMPPD $0x11, %s, Y2, Y3", lnConst("tiny"))
			a.ins("VMULPD %s, Y2, Y4", lnConst("scale"))
			a.ins("VBLENDVPD Y3, Y4, Y2, Y4")
			a.ins("VANDPD %s, Y3, Y3", lnConst("kscale"))
		}
		// Adding bits(1) − bits(√½) carries into the exponent exactly when
		// the mantissa is at least √2's: Y5 = k, Y4 = m ∈ [√½, √2).
		a.ins("VPADDQ %s, %s, Y4", lnConst("off"), x)
		a.ins("VPSRLQ $52, Y4, Y5")
		a.ins("VPOR %s, Y5, Y5", lnConst("magic"))
		a.ins("VSUBPD %s, Y5, Y5", lnConst("bias"))
		if p.fbytes == 8 {
			a.ins("VSUBPD Y3, Y5, Y5")
		}
		a.ins("VPAND %s, Y4, Y4", lnConst("mant"))
		a.ins("VPADDQ %s, Y4, Y4", lnConst("sqrthalf"))
		// Y4 = f, Y6 = s, Y7 = z, Y8 = w.
		a.ins("VSUBPD %s, Y4, Y4", lnConst("one"))
		a.ins("VADDPD %s, Y4, Y6", lnConst("two"))
		a.ins("VDIVPD Y6, Y4, Y6")
		a.ins("VMULPD Y6, Y6, Y7")
		a.ins("VMULPD Y7, Y7, Y8")
		// Y9 = R.
		a.ins("VMOVUPD %s, Y9", lnConst("lg6"))
		a.ins("VFMADD213PD %s, Y8, Y9", lnConst("lg4"))
		a.ins("VFMADD213PD %s, Y8, Y9", lnConst("lg2"))
		a.ins("VMULPD Y8, Y9, Y9")
		a.ins("VMOVUPD %s, Y10", lnConst("lg7"))
		a.ins("VFMADD213PD %s, Y8, Y10", lnConst("lg5"))
		a.ins("VFMADD213PD %s, Y8, Y10", lnConst("lg3"))
		a.ins("VFMADD213PD %s, Y8, Y10", lnConst("lg1"))
		a.ins("VFMADD231PD Y10, Y7, Y9")
		// Y10 = f²/2, Y9 = f²/2 + R, Y11 = s·Y9 + k·ln2lo.
		a.ins("VMULPD %s, Y4, Y10", lnConst("half"))
		a.ins("VMULPD Y4, Y10, Y10")
		a.ins("VADDPD Y10, Y9, Y9")
		a.ins("VMULPD %s, Y5, Y11", lnConst("ln2lo"))
		a.ins("VFMADD231PD Y9, Y6, Y11")
		// Y10 = ln p; the accumulator takes −p·ln p with the unscaled p.
		a.ins("VSUBPD Y11, Y10, Y10")
		a.ins("VSUBPD Y4, Y10, Y10")
		a.ins("VFMSUB231PD %s, Y5, Y10", lnConst("ln2hi"))
		a.ins("VFNMADD231PD Y10, Y2, Y1")
	}
	a.ins("ADDQ $%d, AX", 8*p.fbytes)
	a.ins("SUBQ $4, CX")
	a.ins("JGT loop")
	for _, acc := range []struct{ reg, ret string }{{"0", "norm+16(FP)"}, {"1", "ent+24(FP)"}} {
		a.ins("VEXTRACTF128 $1, Y%s, X2", acc.reg)
		a.ins("VADDPD X2, X%s, X%s", acc.reg, acc.reg)
		a.ins("VHADDPD X%s, X%s, X%s", acc.reg, acc.reg, acc.reg)
		a.ins("VMOVSD X%s, %s", acc.reg, acc.ret)
	}
	a.ins("VZEROUPPER")
	a.ins("RET")
}
