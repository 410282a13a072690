// AVX-512F kernel for the float32 LayerNorm of the serving twin
// (layernorm32.go).
//
// A row's two reductions are serial by definition — float64 sums in
// ascending column order — so the lanes hold ROWS, not columns: eight rows
// per zmm of float64, and per column one VADDPD (pass 1) or VSUBPD,
// VMULPD, VADDPD (pass 2) that is, in each lane, that row's scalar step.
// The column vectors come from an in-register transpose: eight columns of
// the eight rows are converted to float64 row by row (eight zmm) and
// turned with 24 shuffles, which move bits and round nothing; the cols mod
// 8 columns left over are fetched one at a time by a strided gather (per
// column the gather measured 6 cycles against the transpose's 3: 44 ns a
// row against 25 at 32 columns, where the scalar loop takes 94). Lane r never meets another row's data, so
// a row's sums are the scalar loop's bits whatever group it lands in. The
// statistics (÷n, +eps, sqrt, 1/x) are the same correctly rounded IEEE
// operations eight at a time, and the third pass runs along each row,
// eight columns per step: float32 -> float64, −μ, ·inv, -> float32, ·gain,
// +shift, every one unfused as the Go compiler emits them on amd64.

#include "textflag.h"

DATA lnIota<>+0(SB)/4, $0
DATA lnIota<>+4(SB)/4, $1
DATA lnIota<>+8(SB)/4, $2
DATA lnIota<>+12(SB)/4, $3
DATA lnIota<>+16(SB)/4, $4
DATA lnIota<>+20(SB)/4, $5
DATA lnIota<>+24(SB)/4, $6
DATA lnIota<>+28(SB)/4, $7
GLOBL lnIota<>(SB), RODATA|NOPTR, $32

DATA lnOne<>+0(SB)/8, $1.0
GLOBL lnOne<>(SB), RODATA|NOPTR, $8

// COLS8 loads columns (R10)…+7 of the group's eight rows — rows 0-3 at
// R10 + {0, 1, 2, 3}·R13 with 3·R13 in R14, rows 4-7 the same from DX — as
// float64 and transposes them: column c comes out in Z(19+c), one row per
// lane. Stage 1 interleaves row pairs within 128-bit lanes, stages 2 and 3
// are a 4×4 transpose of those lanes, even and odd columns apart.
#define COLS8 \
	VCVTPS2PD  (R10), Z6; \
	VCVTPS2PD  (R10)(R13*1), Z7; \
	VCVTPS2PD  (R10)(R13*2), Z8; \
	VCVTPS2PD  (R10)(R14*1), Z9; \
	VCVTPS2PD  (DX), Z10; \
	VCVTPS2PD  (DX)(R13*1), Z11; \
	VCVTPS2PD  (DX)(R13*2), Z12; \
	VCVTPS2PD  (DX)(R14*1), Z13; \
	VUNPCKLPD  Z7, Z6, Z19; \
	VUNPCKHPD  Z7, Z6, Z20; \
	VUNPCKLPD  Z9, Z8, Z21; \
	VUNPCKHPD  Z9, Z8, Z22; \
	VUNPCKLPD  Z11, Z10, Z23; \
	VUNPCKHPD  Z11, Z10, Z24; \
	VUNPCKLPD  Z13, Z12, Z25; \
	VUNPCKHPD  Z13, Z12, Z26; \
	VSHUFF64X2 $0x44, Z21, Z19, Z6; \
	VSHUFF64X2 $0xee, Z21, Z19, Z7; \
	VSHUFF64X2 $0x44, Z25, Z23, Z8; \
	VSHUFF64X2 $0xee, Z25, Z23, Z9; \
	VSHUFF64X2 $0x44, Z22, Z20, Z10; \
	VSHUFF64X2 $0xee, Z22, Z20, Z11; \
	VSHUFF64X2 $0x44, Z26, Z24, Z12; \
	VSHUFF64X2 $0xee, Z26, Z24, Z13; \
	VSHUFF64X2 $0x88, Z8, Z6, Z19; \
	VSHUFF64X2 $0x88, Z12, Z10, Z20; \
	VSHUFF64X2 $0xdd, Z8, Z6, Z21; \
	VSHUFF64X2 $0xdd, Z12, Z10, Z22; \
	VSHUFF64X2 $0x88, Z9, Z7, Z23; \
	VSHUFF64X2 $0x88, Z13, Z11, Z24; \
	VSHUFF64X2 $0xdd, Z9, Z7, Z25; \
	VSHUFF64X2 $0xdd, Z13, Z11, Z26; \
	ADDQ       $32, R10; \
	ADDQ       $32, DX

// SQUARE is one column of pass 2: Z3 += (c − μ)², the product rounded
// before the add.
#define SQUARE(c) \
	VSUBPD Z0, c, c; \
	VMULPD c, c, c; \
	VADDPD c, Z3, Z3

// GATHERCOL loads column (R10) of the group's eight rows as eight float64
// lanes of Z1. The AVX2 gather consumes its mask, so it is rebuilt.
#define GATHERCOL \
	VPCMPEQD   Y2, Y2, Y2; \
	VGATHERDPS Y2, (R10)(Y15*4), Y1; \
	VCVTPS2PD  Y1, Z1

// NORMALIZE8 is out = float32((v − μ)·inv)·gain + shift on the eight
// columns converted into Z1; g and s are their gain and shift.
#define NORMALIZE8(g, s) \
	VSUBPD    Z4, Z1, Z1; \
	VMULPD    Z5, Z1, Z1; \
	VCVTPD2PS Z1, Y1; \
	VMULPS    g, Y1, Y1; \
	VADDPS    s, Y1, Y1

// func lnBlock32x8(groups, cols int64, src, dst, gain, shift *float32, eps float64) (done int64)
//
// LayerNorm of groups × 8 consecutive rows of cols columns, rows
// contiguous in src and dst (which may alias). Stops at the first group
// where a row's sum is not finite — it holds a NaN or an infinity, and a
// second NaN could then meet the first in an operand order the scalar loop
// does not share — and returns the number of groups finished. gain and
// shift must hold no NaN, for the same reason.
TEXT ·lnBlock32x8(SB), NOSPLIT, $128-64
	MOVQ groups+0(FP), AX
	MOVQ cols+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ dst+24(FP), DI
	MOVQ gain+32(FP), R8
	MOVQ shift+40(FP), R9
	XORQ R12, R12 // groups done

	MOVQ         BX, X14
	VPBROADCASTD X14, Y14
	VPMULLD      lnIota<>(SB), Y14, Y15 // row r of a group starts r·cols elements in
	VCVTSI2SDQ   BX, X0, X0
	VBROADCASTSD X0, Z16                // n = float64(cols)
	VBROADCASTSD eps+48(FP), Z17
	VBROADCASTSD lnOne<>(SB), Z18

	MOVQ  BX, R13
	SHLQ  $2, R13        // row stride in bytes
	LEAQ  (R13)(R13*2), R14
	MOVQ  BX, R11
	ANDQ  $-8, R11 // columns in whole blocks of 8
	MOVQ  BX, CX
	ANDQ  $7, CX
	MOVQ  $1, DX
	SHLQ  CX, DX
	DECQ  DX
	KMOVW DX, K2 // the cols mod 8 tail columns
	LEAQ  mu-128(SP), R15

lngroup:
	// μ: sum ascending over the columns, then ÷ n
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R10
	LEAQ   (SI)(R13*4), DX
	XORQ   CX, CX
	TESTQ  R11, R11
	JZ     lnsumtail

lnsum8:
	COLS8
	VADDPD Z19, Z0, Z0
	VADDPD Z20, Z0, Z0
	VADDPD Z21, Z0, Z0
	VADDPD Z22, Z0, Z0
	VADDPD Z23, Z0, Z0
	VADDPD Z24, Z0, Z0
	VADDPD Z25, Z0, Z0
	VADDPD Z26, Z0, Z0
	ADDQ   $8, CX
	CMPQ   CX, R11
	JLT    lnsum8

lnsumtail:
	CMPQ CX, BX
	JGE  lnmean

lnsum1:
	GATHERCOL
	VADDPD Z1, Z0, Z0
	ADDQ   $4, R10
	INCQ   CX
	CMPQ   CX, BX
	JLT    lnsum1

lnmean:

	VSUBPD   Z0, Z0, Z1 // 0 where the sum is finite, NaN elsewhere
	VCMPPD   $3, Z1, Z1, K1
	KORTESTW K1, K1
	JNZ      lndone
	VDIVPD   Z16, Z0, Z0

	// Σ (v − μ)²
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, R10
	LEAQ   (SI)(R13*4), DX
	XORQ   CX, CX
	TESTQ  R11, R11
	JZ     lnsqtail

lnsq8:
	COLS8
	SQUARE(Z19)
	SQUARE(Z20)
	SQUARE(Z21)
	SQUARE(Z22)
	SQUARE(Z23)
	SQUARE(Z24)
	SQUARE(Z25)
	SQUARE(Z26)
	ADDQ $8, CX
	CMPQ CX, R11
	JLT  lnsq8

lnsqtail:
	CMPQ CX, BX
	JGE  lnstats

lnsq1:
	GATHERCOL
	SQUARE(Z1)
	ADDQ $4, R10
	INCQ CX
	CMPQ CX, BX
	JLT  lnsq1

lnstats:

	// inv = 1 / sqrt(Σ/n + eps)
	VDIVPD  Z16, Z3, Z3
	VADDPD  Z17, Z3, Z3
	VSQRTPD Z3, Z3
	VDIVPD  Z3, Z18, Z3
	VMOVUPD Z0, (R15)
	VMOVUPD Z3, 64(R15)

	XORQ DX, DX // row of the group

lnrow:
	VBROADCASTSD (R15)(DX*8), Z4
	VBROADCASTSD 64(R15)(DX*8), Z5
	XORQ         CX, CX // column
	TESTQ        R11, R11
	JZ           lntail

lncol8:
	VCVTPS2PD (SI)(CX*4), Z1
	NORMALIZE8((R8)(CX*4), (R9)(CX*4))
	VMOVUPS   Y1, (DI)(CX*4)
	ADDQ      $8, CX
	CMPQ      CX, R11
	JLT       lncol8

lntail:
	CMPQ      CX, BX
	JGE       lnnext
	VMOVUPS.Z (SI)(CX*4), K2, Z1
	VMOVUPS.Z (R8)(CX*4), K2, Z6
	VMOVUPS.Z (R9)(CX*4), K2, Z7
	VCVTPS2PD Y1, Z1
	NORMALIZE8(Y6, Y7)
	VMOVUPS   Z1, K2, (DI)(CX*4)

lnnext:
	ADDQ R13, SI
	ADDQ R13, DI
	INCQ DX
	CMPQ DX, $8
	JLT  lnrow

	INCQ R12
	DECQ AX
	JNZ  lngroup

lndone:
	VZEROUPPER
	MOVQ R12, done+56(FP)
	RET
