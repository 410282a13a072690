// AVX2+FMA and AVX-512F kernels for the float64 elementwise tier
// (elu64.go, ops.go): each of the three maps twice, four lanes in ymm
// and — the x8 twins at the end of the file — eight lanes in zmm.
//
// The ELU kernels replay Elu (elu64.go) and take any n >= 1: every input
// is theirs, the elements past the last whole vector through masked
// lanes. The ELU′ and add kernels take n a positive multiple of the lane
// count and leave the rest to the Go caller's scalar loop; each lane is
// the scalar's operations, so its bits are the scalar's, and its NaNs,
// though where two NaN operands meet not always the same NaN.

#include "textflag.h"

#define BCAST4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// Elu's constants, bit for bit (elu64.go).
BCAST4(eluClamp, $0xc044000000000000)   // -40
BCAST4(eluLog2e, $0x3ff71547652b82fe)   // 1/ln 2
BCAST4(eluShifter, $0x4338000000000000) // 1.5·2⁵²
BCAST4(eluLn2Hi, $0x3fe62e42fee00000)
BCAST4(eluLn2Lo, $0x3dea39ef35793c76)
BCAST4(eluQ0, $0x3fe0000000000000)      // 1/2!
BCAST4(eluQ1, $0x3fc5555555555555)      // 1/3!
BCAST4(eluQ2, $0x3fa5555555555555)
BCAST4(eluQ3, $0x3f81111111111111)
BCAST4(eluQ4, $0x3f56c16c16c16c17)
BCAST4(eluQ5, $0x3f2a01a01a01a01a)
BCAST4(eluQ6, $0x3efa01a01a01a01a)
BCAST4(eluQ7, $0x3ec71de3a556c734)
BCAST4(eluQ8, $0x3e927e4fb7789f5c)
BCAST4(eluQ9, $0x3e5ae64567f544e4)
BCAST4(eluQ10, $0x3e21eed8eff8d898)
BCAST4(eluQ11, $0x3de6124613a86d09)     // 1/13!
BCAST4(eluBias, $1023)                  // the exponent bias, an integer
BCAST4(one64, $0x3ff0000000000000)
BCAST4(zero64, $0)

// lane numbers 0-3, for the avx2 tail mask
DATA eluIota<>+0(SB)/8, $0
DATA eluIota<>+8(SB)/8, $1
DATA eluIota<>+16(SB)/8, $2
DATA eluIota<>+24(SB)/8, $3
GLOBL eluIota<>(SB), RODATA|NOPTR, $32

// EXPM1Y is Elu's sequence on four ymm lanes, from w = max(v, eluClamp)
// to fma(s, e, s − 1); the caller then selects v where !(v <= 0). b holds
// the input and is clobbered; the result is left in c; a and d are
// scratch. Instruction by step of Elu:
//
//	w  = max(v, clamp)                 VMAXPD
//	kd = fma(w, log2e, shifter)        VMOVUPD shifter; VFMADD231PD
//	t  = kd − shifter                  VSUBPD
//	r  = fma(−t, ln2Hi|Lo, ·)          2x VFNMADD231PD (−(t·c) + x: the same exact value)
//	q  = fma(q, r, Qj)                 VMOVUPD Q11; 11x VFMADD213PD
//	e  = fma(q, r·r, r)                VMULPD; VFMADD213PD
//	s  = (bits(kd) + 1023) << 52       VPADDQ; VPSLLQ
//	fma(s, e, s − 1)                   VSUBPD; VFMADD213PD
//
// Every constant is a memory operand, so four chains fit the sixteen ymm
// registers.
#define EXPM1Y(a, b, c, d) \
	VMAXPD       eluClamp<>(SB), b, b; \
	VMOVUPD      eluShifter<>(SB), a; \
	VFMADD231PD  eluLog2e<>(SB), b, a; \
	VSUBPD       eluShifter<>(SB), a, c; \
	VFNMADD231PD eluLn2Hi<>(SB), c, b; \
	VFNMADD231PD eluLn2Lo<>(SB), c, b; \
	VMOVUPD      eluQ11<>(SB), c; \
	VFMADD213PD  eluQ10<>(SB), b, c; \
	VFMADD213PD  eluQ9<>(SB), b, c; \
	VFMADD213PD  eluQ8<>(SB), b, c; \
	VFMADD213PD  eluQ7<>(SB), b, c; \
	VFMADD213PD  eluQ6<>(SB), b, c; \
	VFMADD213PD  eluQ5<>(SB), b, c; \
	VFMADD213PD  eluQ4<>(SB), b, c; \
	VFMADD213PD  eluQ3<>(SB), b, c; \
	VFMADD213PD  eluQ2<>(SB), b, c; \
	VFMADD213PD  eluQ1<>(SB), b, c; \
	VFMADD213PD  eluQ0<>(SB), b, c; \
	VMULPD       b, b, d; \
	VFMADD213PD  b, d, c; \
	VPADDQ       eluBias<>(SB), a, a; \
	VPSLLQ       $52, a, a; \
	VSUBPD       one64<>(SB), a, b; \
	VFMADD213PD  b, a, c

// SELECTY sets c = v where !(v <= 0) — positive, +Inf or NaN, bit for
// bit — using m as the mask.
#define SELECTY(v, m, c) \
	VCMPPD    $0x16, zero64<>(SB), v, m; \
	VBLENDVPD m, v, c, c

// ELUY does the four elements at off(SI) into off(DI), reading x again
// for the select rather than holding it in a fifth register.
#define ELUY(off, a, b, c, d) \
	VMOVUPD off(SI), b; \
	EXPM1Y(a, b, c, d); \
	VMOVUPD off(SI), d; \
	SELECTY(d, b, c); \
	VMOVUPD c, off(DI)

// func eluBlock64(n int64, x, y *float64)
//
// n >= 1: sixteen elements per iteration as four independent chains,
// then four at a time, then the remaining 1-3 through VMASKMOVPD. x and y
// may alias: each chain reads its x before any store of the iteration.
TEXT ·eluBlock64(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	CMPQ AX, $16
	JLT  y4

y16:
	// ELUY on four chains, interleaved step by step (chain i: the four
	// elements at 32i(SI), a b c d = Y(4i) … Y(4i+3)). Every chain reads
	// its x twice before the first store.
	VMOVUPD      (SI), Y1
	VMOVUPD      32(SI), Y5
	VMOVUPD      64(SI), Y9
	VMOVUPD      96(SI), Y13
	VMAXPD       eluClamp<>(SB), Y1, Y1
	VMAXPD       eluClamp<>(SB), Y5, Y5
	VMAXPD       eluClamp<>(SB), Y9, Y9
	VMAXPD       eluClamp<>(SB), Y13, Y13
	VMOVUPD      eluShifter<>(SB), Y0
	VMOVUPD      eluShifter<>(SB), Y4
	VMOVUPD      eluShifter<>(SB), Y8
	VMOVUPD      eluShifter<>(SB), Y12
	VFMADD231PD  eluLog2e<>(SB), Y1, Y0
	VFMADD231PD  eluLog2e<>(SB), Y5, Y4
	VFMADD231PD  eluLog2e<>(SB), Y9, Y8
	VFMADD231PD  eluLog2e<>(SB), Y13, Y12
	VSUBPD       eluShifter<>(SB), Y0, Y2
	VSUBPD       eluShifter<>(SB), Y4, Y6
	VSUBPD       eluShifter<>(SB), Y8, Y10
	VSUBPD       eluShifter<>(SB), Y12, Y14
	VFNMADD231PD eluLn2Hi<>(SB), Y2, Y1
	VFNMADD231PD eluLn2Hi<>(SB), Y6, Y5
	VFNMADD231PD eluLn2Hi<>(SB), Y10, Y9
	VFNMADD231PD eluLn2Hi<>(SB), Y14, Y13
	VFNMADD231PD eluLn2Lo<>(SB), Y2, Y1
	VFNMADD231PD eluLn2Lo<>(SB), Y6, Y5
	VFNMADD231PD eluLn2Lo<>(SB), Y10, Y9
	VFNMADD231PD eluLn2Lo<>(SB), Y14, Y13
	VMOVUPD      eluQ11<>(SB), Y2
	VMOVUPD      eluQ11<>(SB), Y6
	VMOVUPD      eluQ11<>(SB), Y10
	VMOVUPD      eluQ11<>(SB), Y14
	VFMADD213PD  eluQ10<>(SB), Y1, Y2
	VFMADD213PD  eluQ10<>(SB), Y5, Y6
	VFMADD213PD  eluQ10<>(SB), Y9, Y10
	VFMADD213PD  eluQ10<>(SB), Y13, Y14
	VFMADD213PD  eluQ9<>(SB), Y1, Y2
	VFMADD213PD  eluQ9<>(SB), Y5, Y6
	VFMADD213PD  eluQ9<>(SB), Y9, Y10
	VFMADD213PD  eluQ9<>(SB), Y13, Y14
	VFMADD213PD  eluQ8<>(SB), Y1, Y2
	VFMADD213PD  eluQ8<>(SB), Y5, Y6
	VFMADD213PD  eluQ8<>(SB), Y9, Y10
	VFMADD213PD  eluQ8<>(SB), Y13, Y14
	VFMADD213PD  eluQ7<>(SB), Y1, Y2
	VFMADD213PD  eluQ7<>(SB), Y5, Y6
	VFMADD213PD  eluQ7<>(SB), Y9, Y10
	VFMADD213PD  eluQ7<>(SB), Y13, Y14
	VFMADD213PD  eluQ6<>(SB), Y1, Y2
	VFMADD213PD  eluQ6<>(SB), Y5, Y6
	VFMADD213PD  eluQ6<>(SB), Y9, Y10
	VFMADD213PD  eluQ6<>(SB), Y13, Y14
	VFMADD213PD  eluQ5<>(SB), Y1, Y2
	VFMADD213PD  eluQ5<>(SB), Y5, Y6
	VFMADD213PD  eluQ5<>(SB), Y9, Y10
	VFMADD213PD  eluQ5<>(SB), Y13, Y14
	VFMADD213PD  eluQ4<>(SB), Y1, Y2
	VFMADD213PD  eluQ4<>(SB), Y5, Y6
	VFMADD213PD  eluQ4<>(SB), Y9, Y10
	VFMADD213PD  eluQ4<>(SB), Y13, Y14
	VFMADD213PD  eluQ3<>(SB), Y1, Y2
	VFMADD213PD  eluQ3<>(SB), Y5, Y6
	VFMADD213PD  eluQ3<>(SB), Y9, Y10
	VFMADD213PD  eluQ3<>(SB), Y13, Y14
	VFMADD213PD  eluQ2<>(SB), Y1, Y2
	VFMADD213PD  eluQ2<>(SB), Y5, Y6
	VFMADD213PD  eluQ2<>(SB), Y9, Y10
	VFMADD213PD  eluQ2<>(SB), Y13, Y14
	VFMADD213PD  eluQ1<>(SB), Y1, Y2
	VFMADD213PD  eluQ1<>(SB), Y5, Y6
	VFMADD213PD  eluQ1<>(SB), Y9, Y10
	VFMADD213PD  eluQ1<>(SB), Y13, Y14
	VFMADD213PD  eluQ0<>(SB), Y1, Y2
	VFMADD213PD  eluQ0<>(SB), Y5, Y6
	VFMADD213PD  eluQ0<>(SB), Y9, Y10
	VFMADD213PD  eluQ0<>(SB), Y13, Y14
	VMULPD       Y1, Y1, Y3
	VMULPD       Y5, Y5, Y7
	VMULPD       Y9, Y9, Y11
	VMULPD       Y13, Y13, Y15
	VFMADD213PD  Y1, Y3, Y2
	VFMADD213PD  Y5, Y7, Y6
	VFMADD213PD  Y9, Y11, Y10
	VFMADD213PD  Y13, Y15, Y14
	VPADDQ       eluBias<>(SB), Y0, Y0
	VPADDQ       eluBias<>(SB), Y4, Y4
	VPADDQ       eluBias<>(SB), Y8, Y8
	VPADDQ       eluBias<>(SB), Y12, Y12
	VPSLLQ       $52, Y0, Y0
	VPSLLQ       $52, Y4, Y4
	VPSLLQ       $52, Y8, Y8
	VPSLLQ       $52, Y12, Y12
	VSUBPD       one64<>(SB), Y0, Y1
	VSUBPD       one64<>(SB), Y4, Y5
	VSUBPD       one64<>(SB), Y8, Y9
	VSUBPD       one64<>(SB), Y12, Y13
	VFMADD213PD  Y1, Y0, Y2
	VFMADD213PD  Y5, Y4, Y6
	VFMADD213PD  Y9, Y8, Y10
	VFMADD213PD  Y13, Y12, Y14
	VMOVUPD      (SI), Y3
	VMOVUPD      32(SI), Y7
	VMOVUPD      64(SI), Y11
	VMOVUPD      96(SI), Y15
	VCMPPD       $0x16, zero64<>(SB), Y3, Y1
	VCMPPD       $0x16, zero64<>(SB), Y7, Y5
	VCMPPD       $0x16, zero64<>(SB), Y11, Y9
	VCMPPD       $0x16, zero64<>(SB), Y15, Y13
	VBLENDVPD    Y1, Y3, Y2, Y2
	VBLENDVPD    Y5, Y7, Y6, Y6
	VBLENDVPD    Y9, Y11, Y10, Y10
	VBLENDVPD    Y13, Y15, Y14, Y14
	VMOVUPD      Y2, (DI)
	VMOVUPD      Y6, 32(DI)
	VMOVUPD      Y10, 64(DI)
	VMOVUPD      Y14, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, AX
	CMPQ AX, $16
	JGE  y16

y4:
	CMPQ AX, $4
	JLT  ytail
	ELUY(0, Y0, Y1, Y2, Y3)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, AX
	JMP  y4

ytail:
	TESTQ AX, AX
	JZ    ydone
	// Y5 = lane < AX: the masked load zeroes the other lanes, the masked
	// store leaves them alone.
	VMOVQ        AX, X5
	VPBROADCASTQ X5, Y5
	VMOVDQU      eluIota<>(SB), Y6
	VPCMPGTQ     Y6, Y5, Y5
	VMASKMOVPD   (SI), Y5, Y4
	VMOVAPD      Y4, Y1
	EXPM1Y(Y0, Y1, Y2, Y3)
	SELECTY(Y4, Y1, Y2)
	VMASKMOVPD   Y2, Y5, (DI)

ydone:
	VZEROUPPER
	RET

// func eluGradBlock64(n int64, y, dy, dx *float64)
//
// dx[i] = y[i] > 0 ? dy[i] : dy[i]*(y[i]+1): one VADDPD, one VMULPD, one
// blend, each the scalar's operation.
TEXT ·eluGradBlock64(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ y+8(FP), SI
	MOVQ dy+16(FP), BX
	MOVQ dx+24(FP), DI
	XORQ AX, AX

	VXORPD  Y12, Y12, Y12
	VMOVUPD one64<>(SB), Y13

grad4:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (BX)(AX*8), Y1
	VADDPD    Y13, Y0, Y2
	VMULPD    Y2, Y1, Y2
	VCMPPD    $0x1e, Y12, Y0, Y3 // y > 0
	VBLENDVPD Y3, Y1, Y2, Y2
	VMOVUPD   Y2, (DI)(AX*8)
	ADDQ      $4, AX
	SUBQ      $4, CX
	JNZ       grad4

	VZEROUPPER
	RET

// func addBlock64(n int64, dst, v *float64)
//
// dst[i] += v[i].
TEXT ·addBlock64(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ v+16(FP), SI
	XORQ AX, AX

add4:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, CX
	JNZ     add4

	VZEROUPPER
	RET

// --- AVX-512F: the same three maps on eight lanes --------------------------

// ELUZ is EXPM1Y and SELECTY on eight zmm lanes, step for step, with two
// AVX-512 spellings: 2^t is VSCALEFPD of 1 by t (the exact power of two
// the exponent-field construction builds, t being an integer in
// [−58, 0] wherever it is used), and the select is an opmask m = v <= 0
// under which s − 1 and then the last fma are computed into v itself, so
// the lanes where !(v <= 0) keep v's bits. The result is left in v; a, b,
// c and d are scratch. Constants: Z20 0, Z21 eluClamp, Z22 shifter, Z23
// log2e, Z24 ln2Hi, Z25 ln2Lo, Z26 1, Z27-Z31 Q11-Q7, each broadcast by
// the caller; Q6-Q0 are embedded broadcasts from memory.
#define ELUZ(v, a, b, c, d, m) \
	VMAXPD           Z21, v, b; \
	VMOVAPD          Z22, a; \
	VFMADD231PD      Z23, b, a; \
	VSUBPD           Z22, a, c; \
	VFNMADD231PD     Z24, c, b; \
	VFNMADD231PD     Z25, c, b; \
	VSCALEFPD        c, Z26, a; \
	VMOVAPD          Z27, c; \
	VFMADD213PD      Z28, b, c; \
	VFMADD213PD      Z29, b, c; \
	VFMADD213PD      Z30, b, c; \
	VFMADD213PD      Z31, b, c; \
	VFMADD213PD.BCST eluQ6<>(SB), b, c; \
	VFMADD213PD.BCST eluQ5<>(SB), b, c; \
	VFMADD213PD.BCST eluQ4<>(SB), b, c; \
	VFMADD213PD.BCST eluQ3<>(SB), b, c; \
	VFMADD213PD.BCST eluQ2<>(SB), b, c; \
	VFMADD213PD.BCST eluQ1<>(SB), b, c; \
	VFMADD213PD.BCST eluQ0<>(SB), b, c; \
	VMULPD           b, b, d; \
	VFMADD213PD      b, d, c; \
	VCMPPD           $0x12, Z20, v, m; \
	VSUBPD           Z26, a, m, v; \
	VFMADD231PD      c, a, m, v

// func eluBlock64x8(n int64, x, y *float64)
//
// eluBlock64 on eight zmm lanes: thirty-two elements per iteration as four
// independent chains, then eight at a time, then the remaining 1-7 under
// an opmask.
TEXT ·eluBlock64x8(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	VPXORQ       Z20, Z20, Z20
	VBROADCASTSD eluClamp<>(SB), Z21
	VBROADCASTSD eluShifter<>(SB), Z22
	VBROADCASTSD eluLog2e<>(SB), Z23
	VBROADCASTSD eluLn2Hi<>(SB), Z24
	VBROADCASTSD eluLn2Lo<>(SB), Z25
	VBROADCASTSD one64<>(SB), Z26
	VBROADCASTSD eluQ11<>(SB), Z27
	VBROADCASTSD eluQ10<>(SB), Z28
	VBROADCASTSD eluQ9<>(SB), Z29
	VBROADCASTSD eluQ8<>(SB), Z30
	VBROADCASTSD eluQ7<>(SB), Z31

	CMPQ AX, $32
	JLT  z8

z32:
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD 128(SI), Z2
	VMOVUPD 192(SI), Z3
	// ELUZ on four chains, interleaved step by step so that the scheduler
	// always holds four independent operations (chain i: v Z(i), a Z(4+i),
	// b Z(8+i), c Z(12+i), d Z(16+i), m K(1+i)).
	VMAXPD           Z21, Z0, Z8
	VMAXPD           Z21, Z1, Z9
	VMAXPD           Z21, Z2, Z10
	VMAXPD           Z21, Z3, Z11
	VMOVAPD          Z22, Z4
	VMOVAPD          Z22, Z5
	VMOVAPD          Z22, Z6
	VMOVAPD          Z22, Z7
	VFMADD231PD      Z23, Z8, Z4
	VFMADD231PD      Z23, Z9, Z5
	VFMADD231PD      Z23, Z10, Z6
	VFMADD231PD      Z23, Z11, Z7
	VSUBPD           Z22, Z4, Z12
	VSUBPD           Z22, Z5, Z13
	VSUBPD           Z22, Z6, Z14
	VSUBPD           Z22, Z7, Z15
	VFNMADD231PD     Z24, Z12, Z8
	VFNMADD231PD     Z24, Z13, Z9
	VFNMADD231PD     Z24, Z14, Z10
	VFNMADD231PD     Z24, Z15, Z11
	VFNMADD231PD     Z25, Z12, Z8
	VFNMADD231PD     Z25, Z13, Z9
	VFNMADD231PD     Z25, Z14, Z10
	VFNMADD231PD     Z25, Z15, Z11
	VSCALEFPD        Z12, Z26, Z4
	VSCALEFPD        Z13, Z26, Z5
	VSCALEFPD        Z14, Z26, Z6
	VSCALEFPD        Z15, Z26, Z7
	VMOVAPD          Z27, Z12
	VMOVAPD          Z27, Z13
	VMOVAPD          Z27, Z14
	VMOVAPD          Z27, Z15
	VFMADD213PD      Z28, Z8, Z12
	VFMADD213PD      Z28, Z9, Z13
	VFMADD213PD      Z28, Z10, Z14
	VFMADD213PD      Z28, Z11, Z15
	VFMADD213PD      Z29, Z8, Z12
	VFMADD213PD      Z29, Z9, Z13
	VFMADD213PD      Z29, Z10, Z14
	VFMADD213PD      Z29, Z11, Z15
	VFMADD213PD      Z30, Z8, Z12
	VFMADD213PD      Z30, Z9, Z13
	VFMADD213PD      Z30, Z10, Z14
	VFMADD213PD      Z30, Z11, Z15
	VFMADD213PD      Z31, Z8, Z12
	VFMADD213PD      Z31, Z9, Z13
	VFMADD213PD      Z31, Z10, Z14
	VFMADD213PD      Z31, Z11, Z15
	VFMADD213PD.BCST eluQ6<>(SB), Z8, Z12
	VFMADD213PD.BCST eluQ6<>(SB), Z9, Z13
	VFMADD213PD.BCST eluQ6<>(SB), Z10, Z14
	VFMADD213PD.BCST eluQ6<>(SB), Z11, Z15
	VFMADD213PD.BCST eluQ5<>(SB), Z8, Z12
	VFMADD213PD.BCST eluQ5<>(SB), Z9, Z13
	VFMADD213PD.BCST eluQ5<>(SB), Z10, Z14
	VFMADD213PD.BCST eluQ5<>(SB), Z11, Z15
	VFMADD213PD.BCST eluQ4<>(SB), Z8, Z12
	VFMADD213PD.BCST eluQ4<>(SB), Z9, Z13
	VFMADD213PD.BCST eluQ4<>(SB), Z10, Z14
	VFMADD213PD.BCST eluQ4<>(SB), Z11, Z15
	VFMADD213PD.BCST eluQ3<>(SB), Z8, Z12
	VFMADD213PD.BCST eluQ3<>(SB), Z9, Z13
	VFMADD213PD.BCST eluQ3<>(SB), Z10, Z14
	VFMADD213PD.BCST eluQ3<>(SB), Z11, Z15
	VFMADD213PD.BCST eluQ2<>(SB), Z8, Z12
	VFMADD213PD.BCST eluQ2<>(SB), Z9, Z13
	VFMADD213PD.BCST eluQ2<>(SB), Z10, Z14
	VFMADD213PD.BCST eluQ2<>(SB), Z11, Z15
	VFMADD213PD.BCST eluQ1<>(SB), Z8, Z12
	VFMADD213PD.BCST eluQ1<>(SB), Z9, Z13
	VFMADD213PD.BCST eluQ1<>(SB), Z10, Z14
	VFMADD213PD.BCST eluQ1<>(SB), Z11, Z15
	VFMADD213PD.BCST eluQ0<>(SB), Z8, Z12
	VFMADD213PD.BCST eluQ0<>(SB), Z9, Z13
	VFMADD213PD.BCST eluQ0<>(SB), Z10, Z14
	VFMADD213PD.BCST eluQ0<>(SB), Z11, Z15
	VMULPD           Z8, Z8, Z16
	VMULPD           Z9, Z9, Z17
	VMULPD           Z10, Z10, Z18
	VMULPD           Z11, Z11, Z19
	VFMADD213PD      Z8, Z16, Z12
	VFMADD213PD      Z9, Z17, Z13
	VFMADD213PD      Z10, Z18, Z14
	VFMADD213PD      Z11, Z19, Z15
	VCMPPD           $0x12, Z20, Z0, K1
	VCMPPD           $0x12, Z20, Z1, K2
	VCMPPD           $0x12, Z20, Z2, K3
	VCMPPD           $0x12, Z20, Z3, K4
	VSUBPD           Z26, Z4, K1, Z0
	VSUBPD           Z26, Z5, K2, Z1
	VSUBPD           Z26, Z6, K3, Z2
	VSUBPD           Z26, Z7, K4, Z3
	VFMADD231PD      Z12, Z4, K1, Z0
	VFMADD231PD      Z13, Z5, K2, Z1
	VFMADD231PD      Z14, Z6, K3, Z2
	VFMADD231PD      Z15, Z7, K4, Z3
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $32, AX
	CMPQ    AX, $32
	JGE     z32

z8:
	CMPQ AX, $8
	JLT  ztail
	VMOVUPD (SI), Z0
	ELUZ(Z0, Z4, Z8, Z12, Z16, K1)
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, AX
	JMP     z8

ztail:
	TESTQ AX, AX
	JZ    zdone
	// K5 = the low AX lanes: the masked load zeroes the others, the masked
	// store leaves them alone.
	MOVQ      AX, CX
	MOVL      $1, BX
	SHLL      CX, BX
	DECL      BX
	KMOVW     BX, K5
	VMOVUPD.Z (SI), K5, Z0
	ELUZ(Z0, Z4, Z8, Z12, Z16, K1)
	VMOVUPD   Z0, K5, (DI)

zdone:
	VZEROUPPER
	RET

// func eluGradBlock64x8(n int64, y, dy, dx *float64)
TEXT ·eluGradBlock64x8(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ y+8(FP), SI
	MOVQ dy+16(FP), BX
	MOVQ dx+24(FP), DI
	XORQ AX, AX

	VPXORQ       Z16, Z16, Z16
	VBROADCASTSD one64<>(SB), Z28

gradx8:
	VMOVUPD   (SI)(AX*8), Z0
	VMOVUPD   (BX)(AX*8), Z1
	VADDPD    Z28, Z0, Z2
	VMULPD    Z2, Z1, Z2
	VCMPPD    $0x1e, Z16, Z0, K2 // y > 0
	VBLENDMPD Z1, Z2, K2, Z2
	VMOVUPD   Z2, (DI)(AX*8)
	ADDQ      $8, AX
	SUBQ      $8, CX
	JNZ       gradx8

	VZEROUPPER
	RET

// func addBlock64x8(n int64, dst, v *float64)
TEXT ·addBlock64x8(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ v+16(FP), SI
	XORQ AX, AX

addx8:
	VMOVUPD (DI)(AX*8), Z0
	VADDPD  (SI)(AX*8), Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JNZ     addx8

	VZEROUPPER
	RET
