package main

import (
	"fmt"
	"math"
	"regexp"
	"strings"
)

// The result reductions of Sec. 4.2.2 — Σ|α|² and −Σ|α|²·ln|α|² — emitted
// as assembly at both widths of simd.go. One iteration takes four (YMM) or
// eight (ZMM) amplitudes to as many probabilities p, one per 64-bit lane,
// and adds them to per-lane accumulators; the caller hands in a multiple of
// the lane count and pads a tail with zero amplitudes, which add +0 to both
// sums. The single-precision
// kernels widen on load (VCVTPS2PD) and are otherwise the same code, so
// both precisions accumulate in float64.
//
// ln p is FreeBSD's e_log.c (the algorithm of Go's math.Log), a register of
// lanes at a time:
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
		return p.sym() + "NormEntropy" + p.name
	}
	return p.sym() + "Norm" + p.name
}

// genSIMDReduce emits the reduction of n amplitudes, n a positive multiple
// of the lane count — four probabilities to a YMM register, eight to a ZMM
// register: register 0 accumulates p per lane and, with entropy, register 1
// accumulates −p·ln p. Four lanes (l0, l1, l2, l3) are summed as
// (l0+l2) + (l1+l3); eight are first folded to four as l_i + l_(i+4).
func genSIMDReduce(a *asm, p simdPrec, entropy bool) {
	name := simdReduceName(p, entropy)
	wide := p.simdWidth == zmm
	// Instructions are written with width-neutral registers V0, V1, …
	regs := func(s string) string {
		return regRE.ReplaceAllStringFunc(s, func(v string) string { return p.reg + v[1:] })
	}
	ins := func(format string, args ...any) { a.ins("%s", regs(fmt.Sprintf(format, args...))) }
	// cst is ins with a constant as the memory operand after the mnemonic
	// and its immediate: the constant's four-lane copy for a YMM kernel, an
	// embedded broadcast of its first lane for a ZMM one.
	cst := func(op, name, operands string) {
		mnemonic, imm, _ := strings.Cut(op, " ")
		if wide {
			mnemonic += ".BCST"
		}
		ins("%s %s%s, %s", mnemonic, imm, lnConst(name), operands)
	}
	fmt.Fprintf(a, "\n// func %s(amps *%s, n int) (norm, ent float64)\n", name, p.ctype)
	fmt.Fprintf(a, "TEXT ·%s(SB), NOSPLIT, $0-32\n", name)
	a.ins("MOVQ amps+0(FP), AX")
	a.ins("MOVQ n+8(FP), CX")
	ins("VXORPD V0, V0, V0")
	ins("VXORPD V1, V1, V1")
	a.label("loop")
	a.ins("PREFETCHT0 4096(AX)")
	// V2 = (p0, p2, p1, p3 …): the squares of two chunks of amplitudes,
	// added in pairs — one multiply and one add per element, as in Go.
	if p.fbytes == 8 {
		ins("VMOVUPD (AX), V2")
		ins("VMOVUPD %d(AX), V3", p.bytes)
	} else {
		ins("VCVTPS2PD (AX), V2")
		ins("VCVTPS2PD %d(AX), V3", p.bytes/2)
	}
	ins("VMULPD V2, V2, V2")
	ins("VMULPD V3, V3, V3")
	if wide {
		// No horizontal add at this width: the same sums from two unpacks.
		ins("VUNPCKLPD V3, V2, V12")
		ins("VUNPCKHPD V3, V2, V2")
		ins("VADDPD V12, V2, V2")
	} else {
		ins("VHADDPD V3, V2, V2")
	}
	ins("VADDPD V2, V0, V0")
	if entropy {
		// V4 = x: p, or p·2^54 where p is subnormal, V3 = 54 in those
		// lanes. The squared modulus of a complex64 is zero or at least
		// 2^-298, so single precision skips the step.
		x := "V2"
		if p.fbytes == 8 {
			x = "V4"
			if wide {
				cst("VCMPPD $0x11, ", "tiny", "V2, K1")
				ins("VMOVAPD V2, V4")
				cst("VMULPD", "scale", "V2, K1, V4")
				ins("VBROADCASTSD.Z %s, K1, V3", lnConst("kscale"))
			} else {
				cst("VCMPPD $0x11, ", "tiny", "V2, V3")
				cst("VMULPD", "scale", "V2, V4")
				ins("VBLENDVPD V3, V4, V2, V4")
				cst("VANDPD", "kscale", "V3, V3")
			}
		}
		or, and := "VPOR", "VPAND"
		if wide {
			or, and = "VPORQ", "VPANDQ"
		}
		// Adding bits(1) − bits(√½) carries into the exponent exactly when
		// the mantissa is at least √2's: V5 = k, V4 = m ∈ [√½, √2).
		cst("VPADDQ", "off", x+", V4")
		ins("VPSRLQ $52, V4, V5")
		cst(or, "magic", "V5, V5")
		cst("VSUBPD", "bias", "V5, V5")
		if p.fbytes == 8 {
			ins("VSUBPD V3, V5, V5")
		}
		cst(and, "mant", "V4, V4")
		cst("VPADDQ", "sqrthalf", "V4, V4")
		// V4 = f, V6 = s, V7 = z, V8 = w.
		cst("VSUBPD", "one", "V4, V4")
		cst("VADDPD", "two", "V4, V6")
		ins("VDIVPD V6, V4, V6")
		ins("VMULPD V6, V6, V7")
		ins("VMULPD V7, V7, V8")
		// V9 = R.
		load := "VMOVUPD"
		if wide {
			load = "VBROADCASTSD"
		}
		ins("%s %s, V9", load, lnConst("lg6"))
		cst("VFMADD213PD", "lg4", "V8, V9")
		cst("VFMADD213PD", "lg2", "V8, V9")
		ins("VMULPD V8, V9, V9")
		ins("%s %s, V10", load, lnConst("lg7"))
		cst("VFMADD213PD", "lg5", "V8, V10")
		cst("VFMADD213PD", "lg3", "V8, V10")
		cst("VFMADD213PD", "lg1", "V8, V10")
		ins("VFMADD231PD V10, V7, V9")
		// V10 = f²/2, V9 = f²/2 + R, V11 = s·V9 + k·ln2lo.
		cst("VMULPD", "half", "V4, V10")
		ins("VMULPD V4, V10, V10")
		ins("VADDPD V10, V9, V9")
		cst("VMULPD", "ln2lo", "V5, V11")
		ins("VFMADD231PD V9, V6, V11")
		// V10 = ln p; the accumulator takes −p·ln p with the unscaled p.
		ins("VSUBPD V11, V10, V10")
		ins("VSUBPD V4, V10, V10")
		cst("VFMSUB231PD", "ln2hi", "V5, V10")
		ins("VFNMADD231PD V10, V2, V1")
	}
	a.ins("ADDQ $%d, AX", 2*p.bytes*p.fbytes/8)
	a.ins("SUBQ $%d, CX", p.bytes/8)
	a.ins("JGT loop")
	for _, acc := range []struct{ reg, ret string }{{"0", "norm+16(FP)"}, {"1", "ent+24(FP)"}} {
		if wide {
			a.ins("VEXTRACTF64X4 $1, Z%s, Y2", acc.reg)
			a.ins("VADDPD Y2, Y%s, Y%s", acc.reg, acc.reg)
		}
		a.ins("VEXTRACTF128 $1, Y%s, X2", acc.reg)
		a.ins("VADDPD X2, X%s, X%s", acc.reg, acc.reg)
		a.ins("VHADDPD X%s, X%s, X%s", acc.reg, acc.reg, acc.reg)
		a.ins("VMOVSD X%s, %s", acc.reg, acc.ret)
	}
	a.ins("VZEROUPPER")
	a.ins("RET")
}

// regRE matches the width-neutral register names of genSIMDReduce.
var regRE = regexp.MustCompile(`\bV\d+`)
