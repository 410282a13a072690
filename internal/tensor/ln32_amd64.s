// AVX-512F kernels for the LayerNorm of both element types: the float32
// serving twin's (layernorm32.go) and the float64 one of training and
// float64 serving (layernorm64.go).
//
// A row's two reductions are serial by definition — float64 sums in
// ascending column order — so the lanes hold ROWS, not columns: eight rows
// per zmm of float64, and per column one VADDPD (pass 1) or VSUBPD,
// VMULPD, VADDPD (pass 2) that is, in each lane, that row's scalar step.
// The column vectors come from an in-register transpose: eight columns of
// the eight rows are loaded as float64 row by row (eight zmm; float32 is
// converted on the way) and turned with 24 shuffles, which move bits and
// round nothing. The cols mod 8 columns left over are fetched one at a
// time by a strided gather. Per column the gather measured 6 cycles
// against the transpose's 3: 44 ns a row against 25 at 32 float32
// columns, where the scalar loop takes 94. Lane r never meets another
// row's data, so a row's sums are the scalar loop's bits whatever group
// it lands in. The statistics (÷n, +eps, sqrt, 1/x) are the same
// correctly rounded IEEE operations eight at a time, and the third pass
// runs along each row, eight columns per step, every operation unfused as
// the scalar definition spells it: for float32, -> float64, −μ, ·inv,
// -> float32, ·gain, +shift; for float64, −μ, ·inv, ·gain, +shift.
// So a lane is NaN exactly where its row's scalar sequence is, whatever
// the data — which NaN is not part of the contract (pack.go) — and every
// kernel finishes every group it is given.

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

// TRANSPOSE8 turns the eight rows in Z6…Z13 (eight float64 columns each)
// into eight columns: column c comes out in Z(19+c), one row per lane.
// Stage 1 interleaves row pairs within 128-bit lanes, stages 2 and 3 are a
// 4×4 transpose of those lanes, even and odd columns apart.
#define TRANSPOSE8 \
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
	VSHUFF64X2 $0xdd, Z13, Z11, Z26

// COLS8 and COLS8D load columns (R10)…+7 of the group's eight rows — rows
// 0-3 at R10 + {0, 1, 2, 3}·R13 with 3·R13 in R14, rows 4-7 the same from
// DX — as float64 (COLS8 converting float32) and transpose them.
#define COLS8 \
	VCVTPS2PD (R10), Z6; \
	VCVTPS2PD (R10)(R13*1), Z7; \
	VCVTPS2PD (R10)(R13*2), Z8; \
	VCVTPS2PD (R10)(R14*1), Z9; \
	VCVTPS2PD (DX), Z10; \
	VCVTPS2PD (DX)(R13*1), Z11; \
	VCVTPS2PD (DX)(R13*2), Z12; \
	VCVTPS2PD (DX)(R14*1), Z13; \
	TRANSPOSE8; \
	ADDQ      $32, R10; \
	ADDQ      $32, DX

#define COLS8D \
	VMOVUPD (R10), Z6; \
	VMOVUPD (R10)(R13*1), Z7; \
	VMOVUPD (R10)(R13*2), Z8; \
	VMOVUPD (R10)(R14*1), Z9; \
	VMOVUPD (DX), Z10; \
	VMOVUPD (DX)(R13*1), Z11; \
	VMOVUPD (DX)(R13*2), Z12; \
	VMOVUPD (DX)(R14*1), Z13; \
	TRANSPOSE8; \
	ADDQ    $64, R10; \
	ADDQ    $64, DX

// SUM8 is eight columns of pass 1: Z0 += column c, c ascending.
#define SUM8 \
	VADDPD Z19, Z0, Z0; \
	VADDPD Z20, Z0, Z0; \
	VADDPD Z21, Z0, Z0; \
	VADDPD Z22, Z0, Z0; \
	VADDPD Z23, Z0, Z0; \
	VADDPD Z24, Z0, Z0; \
	VADDPD Z25, Z0, Z0; \
	VADDPD Z26, Z0, Z0

// SQUARE is one column of pass 2: Z3 += (c − μ)², the product rounded
// before the add.
#define SQUARE(c) \
	VSUBPD Z0, c, c; \
	VMULPD c, c, c; \
	VADDPD c, Z3, Z3

// SQUARE8 is eight columns of pass 2, c ascending.
#define SQUARE8 \
	SQUARE(Z19); \
	SQUARE(Z20); \
	SQUARE(Z21); \
	SQUARE(Z22); \
	SQUARE(Z23); \
	SQUARE(Z24); \
	SQUARE(Z25); \
	SQUARE(Z26)

// GATHERCOL and GATHERCOLD load column (R10) of the group's eight rows
// as eight float64 lanes of Z1, Y15 holding each row's element offset.
// A gather consumes its mask, so it is rebuilt.
#define GATHERCOL \
	VPCMPEQD   Y2, Y2, Y2; \
	VGATHERDPS Y2, (R10)(Y15*4), Y1; \
	VCVTPS2PD  Y1, Z1

#define GATHERCOLD \
	KXNORW     K3, K3, K3; \
	VGATHERDPD (R10)(Y15*8), K3, Z1

// NORMALIZE8 is out = float32((v − μ)·inv)·gain + shift on the eight
// columns converted into Z1; g and s are their gain and shift.
#define NORMALIZE8(g, s) \
	VSUBPD    Z4, Z1, Z1; \
	VMULPD    Z5, Z1, Z1; \
	VCVTPD2PS Z1, Y1; \
	VMULPS    g, Y1, Y1; \
	VADDPS    s, Y1, Y1

// func lnBlock32x8(groups, cols int64, src, dst, gain, shift *float32, eps float64)
//
// LayerNorm of groups × 8 consecutive rows of cols columns, rows
// contiguous in src and dst (which may alias).
TEXT ·lnBlock32x8(SB), NOSPLIT, $128-56
	MOVQ groups+0(FP), AX
	MOVQ cols+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ dst+24(FP), DI
	MOVQ gain+32(FP), R8
	MOVQ shift+40(FP), R9

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
	SUM8
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
	VDIVPD Z16, Z0, Z0

	// Σ (v − μ)²
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, R10
	LEAQ   (SI)(R13*4), DX
	XORQ   CX, CX
	TESTQ  R11, R11
	JZ     lnsqtail

lnsq8:
	COLS8
	SQUARE8
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

	DECQ AX
	JNZ  lngroup

	VZEROUPPER
	RET

// func lnBlock64x8(groups, cols int64, src, dst, xhat, invStd, gain, shift *float64, eps float64)
//
// The float64 LayerNorm of groups × 8 consecutive rows of cols columns,
// rows contiguous in src, dst and xhat (dst may alias src). xhat, if not
// nil, receives each row's (v − μ)·inv and invStd, if not nil, each row's
// inv. There is no conversion, so per column the loads of pass 1 and 2
// are whole zmm and pass 3 is −μ, ·inv, ·gain, +shift.
TEXT ·lnBlock64x8(SB), NOSPLIT, $0-72
	MOVQ groups+0(FP), AX
	MOVQ cols+8(FP), BX
	MOVQ src+16(FP), SI
	MOVQ dst+24(FP), DI
	MOVQ xhat+32(FP), R12
	MOVQ invStd+40(FP), R15
	MOVQ gain+48(FP), R8
	MOVQ shift+56(FP), R9

	MOVQ         BX, X14
	VPBROADCASTD X14, Y14
	VPMULLD      lnIota<>(SB), Y14, Y15 // row r of a group starts r·cols elements in
	VCVTSI2SDQ   BX, X0, X0
	VBROADCASTSD X0, Z16                // n = float64(cols)
	VBROADCASTSD eps+64(FP), Z17
	VBROADCASTSD lnOne<>(SB), Z18

	MOVQ  BX, R13
	SHLQ  $3, R13        // row stride in bytes
	LEAQ  (R13)(R13*2), R14
	MOVQ  BX, R11
	ANDQ  $-8, R11 // columns in whole blocks of 8
	MOVQ  BX, CX
	ANDQ  $7, CX
	MOVQ  $1, DX
	SHLQ  CX, DX
	DECQ  DX
	KMOVW DX, K2 // the cols mod 8 tail columns

dgroup:
	// μ: sum ascending over the columns, then ÷ n
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R10
	LEAQ   (SI)(R13*4), DX
	XORQ   CX, CX
	TESTQ  R11, R11
	JZ     dsumtail

dsum8:
	COLS8D
	SUM8
	ADDQ $8, CX
	CMPQ CX, R11
	JLT  dsum8

dsumtail:
	CMPQ CX, BX
	JGE  dmean

dsum1:
	GATHERCOLD
	VADDPD Z1, Z0, Z0
	ADDQ   $8, R10
	INCQ   CX
	CMPQ   CX, BX
	JLT    dsum1

dmean:
	VDIVPD Z16, Z0, Z0

	// Σ (v − μ)²
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, R10
	LEAQ   (SI)(R13*4), DX
	XORQ   CX, CX
	TESTQ  R11, R11
	JZ     dsqtail

dsq8:
	COLS8D
	SQUARE8
	ADDQ $8, CX
	CMPQ CX, R11
	JLT  dsq8

dsqtail:
	CMPQ CX, BX
	JGE  dstats

dsq1:
	GATHERCOLD
	SQUARE(Z1)
	ADDQ $8, R10
	INCQ CX
	CMPQ CX, BX
	JLT  dsq1

dstats:
	// inv = 1 / sqrt(Σ/n + eps)
	VDIVPD  Z16, Z3, Z3
	VADDPD  Z17, Z3, Z3
	VSQRTPD Z3, Z3
	VDIVPD  Z3, Z18, Z3
	TESTQ   R15, R15
	JZ      drows
	VMOVUPD Z3, (R15)
	ADDQ    $64, R15

drows:
	XORQ DX, DX // row of the group

drow:
	// lane DX of μ and inv, broadcast
	VPBROADCASTQ DX, Z28
	VPERMPD      Z0, Z28, Z4
	VPERMPD      Z3, Z28, Z5
	XORQ         CX, CX // column
	TESTQ        R11, R11
	JZ           dtail

dcol8:
	VMOVUPD (SI)(CX*8), Z1
	VSUBPD  Z4, Z1, Z1
	VMULPD  Z5, Z1, Z1
	TESTQ   R12, R12
	JZ      dout8
	VMOVUPD Z1, (R12)(CX*8)

dout8:
	VMULPD  (R8)(CX*8), Z1, Z1
	VADDPD  (R9)(CX*8), Z1, Z1
	VMOVUPD Z1, (DI)(CX*8)
	ADDQ    $8, CX
	CMPQ    CX, R11
	JLT     dcol8

dtail:
	CMPQ      CX, BX
	JGE       dnext
	VMOVUPD.Z (SI)(CX*8), K2, Z1
	VMOVUPD.Z (R8)(CX*8), K2, Z6
	VMOVUPD.Z (R9)(CX*8), K2, Z7
	VSUBPD    Z4, Z1, Z1
	VMULPD    Z5, Z1, Z1
	TESTQ     R12, R12
	JZ        douttail
	VMOVUPD   Z1, K2, (R12)(CX*8)

douttail:
	VMULPD  Z6, Z1, Z1
	VADDPD  Z7, Z1, Z1
	VMOVUPD Z1, K2, (DI)(CX*8)

dnext:
	ADDQ  R13, SI
	ADDQ  R13, DI
	TESTQ R12, R12
	JZ    dnextrow
	ADDQ  R13, R12

dnextrow:
	INCQ DX
	CMPQ DX, $8
	JLT  drow

	DECQ AX
	JNZ  dgroup

	VZEROUPPER
	RET

// LOADT loads columns (p)…+7 of the group's eight rows — rows 0-3 at
// p + {0, 1, 2, 3}·R13 with 3·R13 in R14, rows 4-7 the same from
// p + 4·R13, through DX — and transposes them into Z19…Z26.
#define LOADT(p) \
	LEAQ    (p)(R13*4), DX; \
	VMOVUPD (p), Z6; \
	VMOVUPD (p)(R13*1), Z7; \
	VMOVUPD (p)(R13*2), Z8; \
	VMOVUPD (p)(R14*1), Z9; \
	VMOVUPD (DX), Z10; \
	VMOVUPD (DX)(R13*1), Z11; \
	VMOVUPD (DX)(R13*2), Z12; \
	VMOVUPD (DX)(R14*1), Z13; \
	TRANSPOSE8

// GRADD is column c of the backward's first sum, its dy in col: h =
// dy·gain (Z31 the broadcast gain), Z0 += h.
#define GRADD(c, col, h) \
	VBROADCASTSD c*8(R8)(CX*8), Z31; \
	VMULPD       Z31, col, h; \
	VADDPD       h, Z0, Z0

// GRADX is the same column of the second: Z3 += h·xh, xh in x.
#define GRADX(h, x) \
	VMULPD x, h, x; \
	VADDPD x, Z3, Z3

// func lnGrad64x8(groups, cols int64, dy, xhat, invStd, gain, dx *float64)
//
// The float64 LayerNorm's input gradient of groups × 8 consecutive rows of
// cols columns, rows contiguous in dy, xhat and dx: per row, in lane r of
// Z0 and Z3,
//
//	sum1 = Σ dy·gain,  sum2 = Σ (dy·gain)·xhat     ascending columns
//
// (dy columns transposed as in pass 1 of lnBlock64x8, multiplied by the
// broadcast gain into eight held registers, then the xhat columns), and
// then along each row, eight columns per step,
//
//	dx = invStd/n · ((n·(dy·gain) − sum1) − xhat·sum2)
//
// every operation unfused as the scalar definition spells it.
TEXT ·lnGrad64x8(SB), NOSPLIT, $0-56
	MOVQ groups+0(FP), AX
	MOVQ cols+8(FP), BX
	MOVQ dy+16(FP), SI
	MOVQ xhat+24(FP), R12
	MOVQ invStd+32(FP), R15
	MOVQ gain+40(FP), R8
	MOVQ dx+48(FP), DI

	VMOVQ        BX, X14
	VPBROADCASTD X14, Y14
	VPMULLD      lnIota<>(SB), Y14, Y15 // row r of a group starts r·cols elements in
	VCVTSI2SDQ   BX, X0, X0
	VBROADCASTSD X0, Z16                // n = float64(cols)

	MOVQ  BX, R13
	SHLQ  $3, R13        // row stride in bytes
	LEAQ  (R13)(R13*2), R14
	MOVQ  BX, R11
	ANDQ  $-8, R11 // columns in whole blocks of 8
	MOVQ  BX, CX
	ANDQ  $7, CX
	MOVQ  $1, DX
	SHLQ  CX, DX
	DECQ  DX
	KMOVW DX, K2 // the cols mod 8 tail columns

ggroup:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, R10
	MOVQ   R12, R9
	XORQ   CX, CX
	TESTQ  R11, R11
	JZ     gsumtail

gsum8:
	LOADT(R10)
	GRADD(0, Z19, Z1)
	GRADD(1, Z20, Z2)
	GRADD(2, Z21, Z4)
	GRADD(3, Z22, Z5)
	GRADD(4, Z23, Z27)
	GRADD(5, Z24, Z28)
	GRADD(6, Z25, Z29)
	GRADD(7, Z26, Z30)
	LOADT(R9)
	GRADX(Z1, Z19)
	GRADX(Z2, Z20)
	GRADX(Z4, Z21)
	GRADX(Z5, Z22)
	GRADX(Z27, Z23)
	GRADX(Z28, Z24)
	GRADX(Z29, Z25)
	GRADX(Z30, Z26)
	ADDQ $64, R10
	ADDQ $64, R9
	ADDQ $8, CX
	CMPQ CX, R11
	JLT  gsum8

gsumtail:
	CMPQ CX, BX
	JGE  gstats

gsum1:
	KXNORW       K3, K3, K3
	VGATHERDPD   (R10)(Y15*8), K3, Z19
	VBROADCASTSD (R8)(CX*8), Z31
	VMULPD       Z31, Z19, Z1
	VADDPD       Z1, Z0, Z0
	KXNORW       K3, K3, K3
	VGATHERDPD   (R9)(Y15*8), K3, Z19
	GRADX(Z1, Z19)
	ADDQ         $8, R10
	ADDQ         $8, R9
	INCQ         CX
	CMPQ         CX, BX
	JLT          gsum1

gstats:
	VMOVUPD (R15), Z4
	VDIVPD  Z16, Z4, Z4 // invStd/n, once per row
	XORQ    DX, DX      // row of the group

grow:
	// lane DX of sum1, sum2 and invStd/n, broadcast
	VPBROADCASTQ DX, Z28
	VPERMPD      Z0, Z28, Z5
	VPERMPD      Z3, Z28, Z6
	VPERMPD      Z4, Z28, Z7
	XORQ         CX, CX
	TESTQ        R11, R11
	JZ           gtail

gcol8:
	VMOVUPD (SI)(CX*8), Z9
	VMULPD  (R8)(CX*8), Z9, Z9
	VMULPD  Z16, Z9, Z9
	VSUBPD  Z5, Z9, Z9
	VMULPD  (R12)(CX*8), Z6, Z10
	VSUBPD  Z10, Z9, Z9
	VMULPD  Z9, Z7, Z9
	VMOVUPD Z9, (DI)(CX*8)
	ADDQ    $8, CX
	CMPQ    CX, R11
	JLT     gcol8

gtail:
	CMPQ      CX, BX
	JGE       gnext
	VMOVUPD.Z (SI)(CX*8), K2, Z9
	VMOVUPD.Z (R8)(CX*8), K2, Z11
	VMOVUPD.Z (R12)(CX*8), K2, Z10
	VMULPD    Z11, Z9, Z9
	VMULPD    Z16, Z9, Z9
	VSUBPD    Z5, Z9, Z9
	VMULPD    Z6, Z10, Z10
	VSUBPD    Z10, Z9, Z9
	VMULPD    Z9, Z7, Z9
	VMOVUPD   Z9, K2, (DI)(CX*8)

gnext:
	ADDQ R13, SI
	ADDQ R13, R12
	ADDQ R13, DI
	INCQ DX
	CMPQ DX, $8
	JLT  grow

	ADDQ $64, R15
	DECQ AX
	JNZ  ggroup

	VZEROUPPER
	RET
