// AVX2+FMA and AVX-512F kernels for the float64 elementwise tier
// (elu64.go, ops.go): each of the three maps twice, four lanes in ymm
// and — the x8 twins at the end of the file — eight lanes in zmm.
//
// All share one contract: n is a positive multiple of the lane count, the
// kernel walks lane-wide blocks from the front, and it STOPS at the first
// block whose scalar result it cannot reproduce bit for bit, returning
// the number of elements it finished. The Go caller does that block with
// the scalar loop and re-enters. What makes a block undoable is stated
// at each kernel; in every case it is data no healthy run contains.

#include "textflag.h"

#define BCAST4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// The constants of $GOROOT/src/math/exp_amd64.s, same decimal literals,
// so the assembler rounds them to the same doubles.
BCAST4(exp64Log2e, $1.4426950408889634073599246810018920)
BCAST4(exp64Ln2U, $0.69314718055966295651160180568695068359375)
BCAST4(exp64Ln2L, $0.28235290563031577122588448175013436025525412068e-12)
BCAST4(exp64Sixteenth, $0.0625)
BCAST4(exp64Half, $0.5)
BCAST4(exp64One, $1.0)
BCAST4(exp64Two, $2.0)
BCAST4(exp64C3, $1.6666666666666666667e-1)
BCAST4(exp64C4, $4.1666666666666666667e-2)
BCAST4(exp64C5, $8.3333333333333333333e-3)
BCAST4(exp64C6, $1.3888888888888888889e-3)
BCAST4(exp64C7, $1.9841269841269841270e-4)
BCAST4(exp64C8, $2.4801587301587301587e-5)
// Below this the exponent k+1023 can reach the denormal branch of
// archExp's ldexp, which the kernel does not replay.
BCAST4(exp64Floor, $-700.0)

DATA exp64Bias<>+0(SB)/8, $0x000003ff000003ff
DATA exp64Bias<>+8(SB)/8, $0x000003ff000003ff
GLOBL exp64Bias<>(SB), RODATA|NOPTR, $16

// ELU4 is math.archExp's FMA path on four lanes, then -1 and the v > 0
// identity blend. v holds the input (kept for the blend), t/k/r are
// scratch; the result is left in r. Instruction for instruction:
//
//	archExp (scalar)                      here
//	MULSD  LOG2E                          VMULPD
//	CVTSD2SL / CVTSL2SD                   VCVTPD2DQY / VCVTDQ2PD
//	2x VFNMADD231SD (LN2U, LN2L)          2x VFNMADD231PD
//	MULSD  0.0625                         VMULPD
//	7x VFMADD213SD (Taylor)               7x VFMADD213PD
//	MULSD, 4x (VADDSD 2.0, MULSD|FMA 1.0) the same, packed
//	ADDL 0x3FF, SHLQ 52, MULSD            VPADDD, VPMOVZXDQ, VPSLLQ, VMULPD
//
// Every one of those is a correctly rounded IEEE operation under the
// same MXCSR, so a lane's bits are the scalar's. Positive lanes run the
// sequence on garbage and the blend discards it. Y12-Y15 are the caller's
// constants: 0, LOG2E, LN2U, LN2L.
#define ELU4(v, t, k, kx, r) \
	VMULPD       Y13, v, t; \
	VCVTPD2DQY   t, kx; \
	VCVTDQ2PD    kx, t; \
	VMOVAPD      v, r; \
	VFNMADD231PD Y14, t, r; \
	VFNMADD231PD Y15, t, r; \
	VMULPD       exp64Sixteenth<>(SB), r, r; \
	VMOVUPD      exp64C8<>(SB), t; \
	VFMADD213PD  exp64C7<>(SB), r, t; \
	VFMADD213PD  exp64C6<>(SB), r, t; \
	VFMADD213PD  exp64C5<>(SB), r, t; \
	VFMADD213PD  exp64C4<>(SB), r, t; \
	VFMADD213PD  exp64C3<>(SB), r, t; \
	VFMADD213PD  exp64Half<>(SB), r, t; \
	VFMADD213PD  exp64One<>(SB), r, t; \
	VMULPD       t, r, r; \
	VADDPD       exp64Two<>(SB), r, t; \
	VMULPD       t, r, r; \
	VADDPD       exp64Two<>(SB), r, t; \
	VMULPD       t, r, r; \
	VADDPD       exp64Two<>(SB), r, t; \
	VMULPD       t, r, r; \
	VADDPD       exp64Two<>(SB), r, t; \
	VFMADD213PD  exp64One<>(SB), t, r; \
	VPADDD       exp64Bias<>(SB), kx, kx; \
	VPMOVZXDQ    kx, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, r, r; \
	VSUBPD       exp64One<>(SB), r, r; \
	VCMPPD       $0x1e, Y12, v, t; \
	VBLENDVPD    t, v, r, r

// func eluBlock64(n int64, x, y *float64) (done int64)
//
// y[i] = x[i] > 0 ? x[i] : math.Exp(x[i]) - 1. Stops at a block holding
// a NaN, -Inf or v < -700: archExp leaves its straight-line path for
// those. (+Inf needs no stop: like every positive lane it is blended to
// the identity.) Eight elements per iteration while they last, as two
// independent chains for the out-of-order core to overlap.
TEXT ·eluBlock64(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	XORQ AX, AX // elements done

	VXORPD  Y12, Y12, Y12
	VMOVUPD exp64Log2e<>(SB), Y13
	VMOVUPD exp64Ln2U<>(SB), Y14
	VMOVUPD exp64Ln2L<>(SB), Y15
	VMOVUPD exp64Floor<>(SB), Y11

	CMPQ CX, $8
	JLT  elu4

elu8:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   32(SI)(AX*8), Y1
	VCMPPD    $0x19, Y11, Y0, Y2 // not (v >= -700): below the floor, or NaN
	VCMPPD    $0x19, Y11, Y1, Y3
	VORPD     Y3, Y2, Y2
	VMOVMSKPD Y2, DX
	TESTQ     DX, DX
	JNZ       elu4 // one of the two blocks is slow; find out which below
	ELU4(Y0, Y2, Y4, X4, Y6)
	ELU4(Y1, Y3, Y5, X5, Y7)
	VMOVUPD   Y6, (DI)(AX*8)
	VMOVUPD   Y7, 32(DI)(AX*8)
	ADDQ      $8, AX
	SUBQ      $8, CX
	CMPQ      CX, $8
	JGE       elu8

elu4:
	TESTQ     CX, CX
	JZ        eludone
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $0x19, Y11, Y0, Y2
	VMOVMSKPD Y2, DX
	TESTQ     DX, DX
	JNZ       eludone
	ELU4(Y0, Y2, Y4, X4, Y6)
	VMOVUPD   Y6, (DI)(AX*8)
	ADDQ      $4, AX
	SUBQ      $4, CX
	JMP       elu4

eludone:
	VZEROUPPER
	MOVQ AX, done+24(FP)
	RET

// func eluGradBlock64(n int64, y, dy, dx *float64) (done int64)
//
// dx[i] = y[i] > 0 ? dy[i] : dy[i]*(y[i]+1): one VADDPD, one VMULPD, one
// blend, each the scalar's operation. Stops at a block where y or dy is
// NaN: with two NaN operands the payload x86 propagates depends on the
// operand order, which the Go compiler picks for the scalar loop.
TEXT ·eluGradBlock64(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ y+8(FP), SI
	MOVQ dy+16(FP), BX
	MOVQ dx+24(FP), DI
	XORQ AX, AX

	VXORPD  Y12, Y12, Y12
	VMOVUPD exp64One<>(SB), Y13

grad4:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (BX)(AX*8), Y1
	VCMPPD    $3, Y1, Y0, Y2 // unordered: either is NaN
	VMOVMSKPD Y2, DX
	TESTQ     DX, DX
	JNZ       graddone
	VADDPD    Y13, Y0, Y2
	VMULPD    Y2, Y1, Y2
	VCMPPD    $0x1e, Y12, Y0, Y3 // y > 0
	VBLENDVPD Y3, Y1, Y2, Y2
	VMOVUPD   Y2, (DI)(AX*8)
	ADDQ      $4, AX
	SUBQ      $4, CX
	JNZ       grad4

graddone:
	VZEROUPPER
	MOVQ AX, done+32(FP)
	RET

// func addBlock64(n int64, dst, v *float64) (done int64)
//
// dst[i] += v[i]. Stops at a block where dst or v is NaN, for the
// reason given at eluGradBlock64.
TEXT ·addBlock64(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ v+16(FP), SI
	XORQ AX, AX

add4:
	VMOVUPD   (DI)(AX*8), Y0
	VMOVUPD   (SI)(AX*8), Y1
	VCMPPD    $3, Y1, Y0, Y2
	VMOVMSKPD Y2, DX
	TESTQ     DX, DX
	JNZ       adddone
	VADDPD    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	SUBQ      $4, CX
	JNZ       add4

adddone:
	VZEROUPPER
	MOVQ AX, done+24(FP)
	RET

// --- AVX-512F: the same three maps on eight lanes --------------------------

// ELU8 is ELU4 on eight zmm lanes, instruction for instruction; where
// AVX-512 spells a step differently the operation is unchanged:
//
//	ELU4 (ymm)                 here (zmm)
//	VCVTPD2DQY ymm -> xmm      VCVTPD2DQ zmm -> ymm   (MXCSR rounding both)
//	VCVTDQ2PD  xmm -> ymm      VCVTDQ2PD ymm -> zmm
//	VPADDD / VPMOVZXDQ xmm     the same on ymm -> zmm
//	VCMPPD -> ymm, VBLENDVPD   VCMPPD -> opmask, VBLENDMPD
//
// and every constant is a register, broadcast by the caller from the same
// literals: Z16 0, Z17 LOG2E, Z18 LN2U, Z19 LN2L, Z20 1/16, Z21-Z26 C8-C3,
// Z27 0.5, Z28 1, Z29 2, Y15 the exponent bias 0x3ff in eight dwords. m is
// a scratch opmask.
#define ELU8(v, t, k, kx, r, m) \
	VMULPD       Z17, v, t; \
	VCVTPD2DQ    t, kx; \
	VCVTDQ2PD    kx, t; \
	VMOVAPD      v, r; \
	VFNMADD231PD Z18, t, r; \
	VFNMADD231PD Z19, t, r; \
	VMULPD       Z20, r, r; \
	VMOVAPD      Z21, t; \
	VFMADD213PD  Z22, r, t; \
	VFMADD213PD  Z23, r, t; \
	VFMADD213PD  Z24, r, t; \
	VFMADD213PD  Z25, r, t; \
	VFMADD213PD  Z26, r, t; \
	VFMADD213PD  Z27, r, t; \
	VFMADD213PD  Z28, r, t; \
	VMULPD       t, r, r; \
	VADDPD       Z29, r, t; \
	VMULPD       t, r, r; \
	VADDPD       Z29, r, t; \
	VMULPD       t, r, r; \
	VADDPD       Z29, r, t; \
	VMULPD       t, r, r; \
	VADDPD       Z29, r, t; \
	VFMADD213PD  Z28, t, r; \
	VPADDD       Y15, kx, kx; \
	VPMOVZXDQ    kx, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, r, r; \
	VSUBPD       Z28, r, r; \
	VCMPPD       $0x1e, Z16, v, m; \
	VBLENDMPD    v, r, m, r

// func eluBlock64x8(n int64, x, y *float64) (done int64)
//
// eluBlock64 with 8-lane blocks: the same stop rule (a block holding a
// NaN, -Inf or v < -700), sixteen elements per iteration while they last.
TEXT ·eluBlock64x8(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	XORQ AX, AX // elements done

	VPXORQ       Z16, Z16, Z16
	VBROADCASTSD exp64Log2e<>(SB), Z17
	VBROADCASTSD exp64Ln2U<>(SB), Z18
	VBROADCASTSD exp64Ln2L<>(SB), Z19
	VBROADCASTSD exp64Sixteenth<>(SB), Z20
	VBROADCASTSD exp64C8<>(SB), Z21
	VBROADCASTSD exp64C7<>(SB), Z22
	VBROADCASTSD exp64C6<>(SB), Z23
	VBROADCASTSD exp64C5<>(SB), Z24
	VBROADCASTSD exp64C4<>(SB), Z25
	VBROADCASTSD exp64C3<>(SB), Z26
	VBROADCASTSD exp64Half<>(SB), Z27
	VBROADCASTSD exp64One<>(SB), Z28
	VBROADCASTSD exp64Two<>(SB), Z29
	VBROADCASTSD exp64Floor<>(SB), Z30
	VPBROADCASTD exp64Bias<>(SB), Y15

	CMPQ CX, $16
	JLT  elux8

elux16:
	VMOVUPD  (SI)(AX*8), Z0
	VMOVUPD  64(SI)(AX*8), Z1
	VCMPPD   $0x19, Z30, Z0, K1 // not (v >= -700): below the floor, or NaN
	VCMPPD   $0x19, Z30, Z1, K2
	KORTESTW K1, K2
	JNZ      elux8 // one of the two blocks is slow; find out which below
	ELU8(Z0, Z2, Z4, Y4, Z6, K3)
	ELU8(Z1, Z3, Z5, Y5, Z7, K4)
	VMOVUPD  Z6, (DI)(AX*8)
	VMOVUPD  Z7, 64(DI)(AX*8)
	ADDQ     $16, AX
	SUBQ     $16, CX
	CMPQ     CX, $16
	JGE      elux16

elux8:
	TESTQ    CX, CX
	JZ       eluxdone
	VMOVUPD  (SI)(AX*8), Z0
	VCMPPD   $0x19, Z30, Z0, K1
	KORTESTW K1, K1
	JNZ      eluxdone
	ELU8(Z0, Z2, Z4, Y4, Z6, K3)
	VMOVUPD  Z6, (DI)(AX*8)
	ADDQ     $8, AX
	SUBQ     $8, CX
	JMP      elux8

eluxdone:
	VZEROUPPER
	MOVQ AX, done+24(FP)
	RET

// func eluGradBlock64x8(n int64, y, dy, dx *float64) (done int64)
TEXT ·eluGradBlock64x8(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ y+8(FP), SI
	MOVQ dy+16(FP), BX
	MOVQ dx+24(FP), DI
	XORQ AX, AX

	VPXORQ       Z16, Z16, Z16
	VBROADCASTSD exp64One<>(SB), Z28

gradx8:
	VMOVUPD   (SI)(AX*8), Z0
	VMOVUPD   (BX)(AX*8), Z1
	VCMPPD    $3, Z1, Z0, K1 // unordered: either is NaN
	KORTESTW  K1, K1
	JNZ       gradxdone
	VADDPD    Z28, Z0, Z2
	VMULPD    Z2, Z1, Z2
	VCMPPD    $0x1e, Z16, Z0, K2 // y > 0
	VBLENDMPD Z1, Z2, K2, Z2
	VMOVUPD   Z2, (DI)(AX*8)
	ADDQ      $8, AX
	SUBQ      $8, CX
	JNZ       gradx8

gradxdone:
	VZEROUPPER
	MOVQ AX, done+32(FP)
	RET

// func addBlock64x8(n int64, dst, v *float64) (done int64)
TEXT ·addBlock64x8(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ v+16(FP), SI
	XORQ AX, AX

addx8:
	VMOVUPD  (DI)(AX*8), Z0
	VMOVUPD  (SI)(AX*8), Z1
	VCMPPD   $3, Z1, Z0, K1
	KORTESTW K1, K1
	JNZ      addxdone
	VADDPD   Z1, Z0, Z0
	VMOVUPD  Z0, (DI)(AX*8)
	ADDQ     $8, AX
	SUBQ     $8, CX
	JNZ      addx8

addxdone:
	VZEROUPPER
	MOVQ AX, done+24(FP)
	RET
