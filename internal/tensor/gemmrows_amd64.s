// The unpacked GEMM with its bias add (MatMulBiasRows, ops.go) on the two
// SIMD rungs: rows of c = a·b + bias for shapes under the packed tier's
// threshold, the register-accumulator spelling of matMulRows followed by
// the bias add, bit for bit.
//
// The lanes are output columns, eight per block: one zmm (avx512) or two
// ymm (avx2). A block's accumulators stay in registers for the whole k
// loop; the bias is added once and the block is stored once. Per element
// the arithmetic is the scalar loop's, in its order, with no FMA:
//
//	acc = +0                                    (clear(drow))
//	per group of four k, unless a0..a3 are all ±0 (VCMPPD + VMOVMSKPD):
//	    t = ((a0·b0 + a1·b1) + a2·b2) + a3·b3;  acc = acc + t
//	per remaining k, unless a == ±0:
//	    acc = acc + a·b
//	acc = acc + bias                            (bias != nil)
//
// A skipped group is not the same as adding 0·b: 0·Inf is a NaN. Every
// step is a correctly rounded IEEE operation, and x + y and x·y do not
// depend on the order of their operands except in which NaN payload
// survives, so a column gets the scalar's bits, and its NaNs where the
// scalar has them, whatever block or rung computes it; the kernels run
// every row. Columns past the last full block take masked lanes, whose
// loads never leave b, the bias or c.
//
// Both kernels: a is rows×k, b is k×n, c is rows×n, all row-major and
// dense; bias is nil or n values; n ≥ 1, k ≥ 1.

#include "textflag.h"

// Lane masks of a partial avx2 block: the eight qwords from index 8 - r
// have their first r lanes set.
DATA gemmLaneMask<>+0(SB)/8, $-1
DATA gemmLaneMask<>+8(SB)/8, $-1
DATA gemmLaneMask<>+16(SB)/8, $-1
DATA gemmLaneMask<>+24(SB)/8, $-1
DATA gemmLaneMask<>+32(SB)/8, $-1
DATA gemmLaneMask<>+40(SB)/8, $-1
DATA gemmLaneMask<>+48(SB)/8, $-1
DATA gemmLaneMask<>+56(SB)/8, $-1
DATA gemmLaneMask<>+64(SB)/8, $0
DATA gemmLaneMask<>+72(SB)/8, $0
DATA gemmLaneMask<>+80(SB)/8, $0
DATA gemmLaneMask<>+88(SB)/8, $0
DATA gemmLaneMask<>+96(SB)/8, $0
DATA gemmLaneMask<>+104(SB)/8, $0
DATA gemmLaneMask<>+112(SB)/8, $0
DATA gemmLaneMask<>+120(SB)/8, $0
GLOBL gemmLaneMask<>(SB), RODATA|NOPTR, $128

// Register use, both kernels: R8 rows left, R9 k, R10 n·8 (the row stride
// of b and c in bytes), SI row i of a, DI row i of c, BX b, DX bias, CX
// the block's byte offset in a row, R11 a[i][k], R12 b[k][block], R13
// loop count, R14 scratch; Y15 zero. Row i+1 of a is at R11 + 8·R9.

// ZEROGROUP jumps to skip when the four a values at R11 are all ±0.
#define ZEROGROUP(skip) \
	VMOVUPD   (R11), Y7; \
	VCMPPD    $0, Y15, Y7, Y7; \
	VMOVMSKPD Y7, R14; \
	CMPL      R14, $15; \
	JEQ       skip

// ZEROONE jumps to skip when the a value at m is ±0.
#define ZEROONE(m, skip) \
	MOVQ m, R14; \
	SHLQ $1, R14; \
	JZ   skip

// ZSELECT puts the mask of the block at CX in K3 — K1, or K2 for a last,
// partial block — and goes on at full.
#define ZSELECT(full) \
	KMOVW K1, K3; \
	MOVQ  R10, R14; \
	SUBQ  CX, R14; \
	CMPQ  R14, $64; \
	JGE   full; \
	KMOVW K2, K3

// func gemmRows64x8(rows, k, n int64, a, b, c, bias *float64)
//
// avx512: a block is one zmm under the opmask K3 — K1 (all eight lanes)
// for a full block, K2 (the n mod 8 lanes) for the last, partial one.
//
// Rows go in pairs, which share the loads of b and give the core two
// independent chains of acc + t: one row's chain alone is what bounds the
// loop. A pair adds every group and every single k, zeros included. That
// changes no bit: with b finite there, a zero group's t is ±0, and acc + ±0
// is acc, since acc starts at +0 and so is never −0. With an Inf or a NaN
// of b there, 0·b is a NaN the scalar loop never computes, so a pair whose
// result holds a NaN in a live lane is done again, row i alone, by the
// one-row loop, which skips zeros as the scalar loop does: the one NaN
// test left in the kernels, and it keeps where the NaNs are, not which.
// An odd last row takes the one-row loop as well.
TEXT ·gemmRows64x8(SB), NOSPLIT, $0-56
	MOVQ rows+0(FP), R8
	MOVQ k+8(FP), R9
	MOVQ n+16(FP), R10
	MOVQ a+24(FP), SI
	MOVQ b+32(FP), BX
	MOVQ c+40(FP), DI
	MOVQ bias+48(FP), DX

	MOVL  $0xff, R14
	KMOVW R14, K1
	MOVQ  R10, CX
	ANDQ  $7, CX
	MOVL  $1, R14
	SHLL  CX, R14
	DECL  R14
	KMOVW R14, K2
	SHLQ  $3, R10
	VXORPD Y15, Y15, Y15

zrows:
	CMPQ R8, $2
	JLT  zrow
	XORQ CX, CX

zpblock:
	ZSELECT(zpstart)

zpstart:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   SI, R11
	LEAQ   (BX)(CX*1), R12
	MOVQ   R9, R13
	SHRQ   $2, R13
	JZ     zpones

zpgroup:
	VMOVUPD.Z   (R12), K3, Z2
	VMULPD.BCST (R11), Z2, Z4
	VMULPD.BCST (R11)(R9*8), Z2, Z5
	VMOVUPD.Z   (R12)(R10*1), K3, Z2
	VMULPD.BCST 8(R11), Z2, Z3
	VADDPD      Z3, Z4, Z4
	VMULPD.BCST 8(R11)(R9*8), Z2, Z6
	VADDPD      Z6, Z5, Z5
	LEAQ        (R12)(R10*2), R12
	VMOVUPD.Z   (R12), K3, Z2
	VMULPD.BCST 16(R11), Z2, Z3
	VADDPD      Z3, Z4, Z4
	VMULPD.BCST 16(R11)(R9*8), Z2, Z6
	VADDPD      Z6, Z5, Z5
	VMOVUPD.Z   (R12)(R10*1), K3, Z2
	VMULPD.BCST 24(R11), Z2, Z3
	VADDPD      Z3, Z4, Z4
	VMULPD.BCST 24(R11)(R9*8), Z2, Z6
	VADDPD      Z6, Z5, Z5
	LEAQ        (R12)(R10*2), R12
	VADDPD      Z4, Z0, Z0
	VADDPD      Z5, Z1, Z1
	ADDQ        $32, R11
	DECQ        R13
	JNZ         zpgroup

zpones:
	MOVQ R9, R13
	ANDQ $3, R13
	JZ   zpbias

zpone:
	VMOVUPD.Z   (R12), K3, Z2
	VMULPD.BCST (R11), Z2, Z4
	VADDPD      Z4, Z0, Z0
	VMULPD.BCST (R11)(R9*8), Z2, Z5
	VADDPD      Z5, Z1, Z1
	ADDQ        $8, R11
	ADDQ        R10, R12
	DECQ        R13
	JNZ         zpone

zpbias:
	TESTQ DX, DX
	JZ    zpstore
	VMOVUPD.Z (DX)(CX*1), K3, Z2
	VADDPD    Z2, Z0, Z0
	VADDPD    Z2, Z1, Z1

zpstore:
	VCMPPD   $3, Z0, Z0, K3, K4 // a NaN in a live lane: maybe a 0·b
	VCMPPD   $3, Z1, Z1, K3, K5
	KORTESTW K4, K5
	JNZ      zrow               // row i alone
	LEAQ     (DI)(R10*1), R14
	VMOVUPD  Z0, K3, (DI)(CX*1)
	VMOVUPD  Z1, K3, (R14)(CX*1)
	ADDQ     $64, CX
	CMPQ     CX, R10
	JLT      zpblock

	LEAQ (DI)(R10*2), DI
	LEAQ (SI)(R9*8), SI
	LEAQ (SI)(R9*8), SI
	SUBQ $2, R8
	JMP  zrows

zrow:
	TESTQ R8, R8
	JZ    zdone
	XORQ  CX, CX

zblock:
	ZSELECT(zstart)

zstart:
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R11
	LEAQ   (BX)(CX*1), R12
	MOVQ   R9, R13
	SHRQ   $2, R13
	JZ     zones

zgroup:
	ZEROGROUP(zgroupskip)
	VMOVUPD.Z   (R12), K3, Z2
	VMULPD.BCST (R11), Z2, Z2
	VMOVUPD.Z   (R12)(R10*1), K3, Z3
	VMULPD.BCST 8(R11), Z3, Z3
	VADDPD      Z3, Z2, Z2
	LEAQ        (R12)(R10*2), R14
	VMOVUPD.Z   (R14), K3, Z3
	VMULPD.BCST 16(R11), Z3, Z3
	VADDPD      Z3, Z2, Z2
	VMOVUPD.Z   (R14)(R10*1), K3, Z3
	VMULPD.BCST 24(R11), Z3, Z3
	VADDPD      Z3, Z2, Z2
	VADDPD      Z2, Z0, Z0

zgroupskip:
	ADDQ $32, R11
	LEAQ (R12)(R10*4), R12
	DECQ R13
	JNZ  zgroup

zones:
	MOVQ R9, R13
	ANDQ $3, R13
	JZ   zbias

zone:
	ZEROONE((R11), zoneskip)
	VMOVUPD.Z   (R12), K3, Z2
	VMULPD.BCST (R11), Z2, Z2
	VADDPD      Z2, Z0, Z0

zoneskip:
	ADDQ $8, R11
	ADDQ R10, R12
	DECQ R13
	JNZ  zone

zbias:
	TESTQ DX, DX
	JZ    zstore
	VMOVUPD.Z (DX)(CX*1), K3, Z2
	VADDPD    Z2, Z0, Z0

zstore:
	VMOVUPD Z0, K3, (DI)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R10
	JLT     zblock

	ADDQ R10, DI
	LEAQ (SI)(R9*8), SI
	DECQ R8
	JMP  zrows

zdone:
	VZEROUPPER
	RET

// avx2: a block is Y0 (columns 0-3) and Y1 (columns 4-7). YMUL and YMULM
// multiply eight columns of b at m by the a value broadcast in Y4, into
// lo:hi — YMULM under the lane masks Y13:Y14 of a partial block.
#define YMUL(m, lo, hi) \
	VMULPD m, Y4, lo; \
	VMULPD 32 m, Y4, hi

#define YMULM(m, lo, hi) \
	VMASKMOVPD m, Y13, lo; \
	VMASKMOVPD 32 m, Y14, hi; \
	VMULPD     Y4, lo, lo; \
	VMULPD     Y4, hi, hi

// YGROUP adds t of the group at R12 to Y0:Y1, its four a values at a0…a3.
#define YGROUP(MUL, a0, a1, a2, a3) \
	VBROADCASTSD a0, Y4; \
	MUL((R12), Y2, Y3); \
	VBROADCASTSD a1, Y4; \
	MUL((R12)(R10*1), Y5, Y6); \
	VADDPD       Y5, Y2, Y2; \
	VADDPD       Y6, Y3, Y3; \
	LEAQ         (R12)(R10*2), R14; \
	VBROADCASTSD a2, Y4; \
	MUL((R14), Y5, Y6); \
	VADDPD       Y5, Y2, Y2; \
	VADDPD       Y6, Y3, Y3; \
	VBROADCASTSD a3, Y4; \
	MUL((R14)(R10*1), Y5, Y6); \
	VADDPD       Y5, Y2, Y2; \
	VADDPD       Y6, Y3, Y3; \
	VADDPD       Y2, Y0, Y0; \
	VADDPD       Y3, Y1, Y1

// YONE adds a·b of the single k at R11 / R12 to Y0:Y1.
#define YONE(MUL) \
	VBROADCASTSD (R11), Y4; \
	MUL((R12), Y2, Y3); \
	VADDPD       Y2, Y0, Y0; \
	VADDPD       Y3, Y1, Y1

// func gemmRows64(rows, k, n int64, a, b, c, bias *float64)
//
// avx2. Full blocks take unmasked loads and stores; the last, partial
// block (n mod 8 columns) has its own copy of the loops, with VMASKMOVPD.
TEXT ·gemmRows64(SB), NOSPLIT, $0-56
	MOVQ rows+0(FP), R8
	MOVQ k+8(FP), R9
	MOVQ n+16(FP), R10
	MOVQ a+24(FP), SI
	MOVQ b+32(FP), BX
	MOVQ c+40(FP), DI
	MOVQ bias+48(FP), DX

	MOVQ    R10, CX
	ANDQ    $7, CX
	MOVQ    $8, R14
	SUBQ    CX, R14
	LEAQ    gemmLaneMask<>(SB), R13
	VMOVUPD (R13)(R14*8), Y13
	VMOVUPD 32(R13)(R14*8), Y14
	SHLQ    $3, R10
	VXORPD  Y15, Y15, Y15

yrow:
	TESTQ R8, R8
	JZ    ydone
	XORQ CX, CX

yblock:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R11
	LEAQ   (BX)(CX*1), R12
	MOVQ   R10, R14
	SUBQ   CX, R14
	CMPQ   R14, $64
	JLT    ypartial
	MOVQ   R9, R13
	SHRQ   $2, R13
	JZ     yones

ygroup:
	ZEROGROUP(ygroupskip)
	YGROUP(YMUL, (R11), 8(R11), 16(R11), 24(R11))

ygroupskip:
	ADDQ $32, R11
	LEAQ (R12)(R10*4), R12
	DECQ R13
	JNZ  ygroup

yones:
	MOVQ R9, R13
	ANDQ $3, R13
	JZ   ybias

yone:
	ZEROONE((R11), yoneskip)
	YONE(YMUL)

yoneskip:
	ADDQ $8, R11
	ADDQ R10, R12
	DECQ R13
	JNZ  yone

ybias:
	TESTQ  DX, DX
	JZ     ystore
	VADDPD (DX)(CX*1), Y0, Y0
	VADDPD 32(DX)(CX*1), Y1, Y1

ystore:
	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 32(DI)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R10
	JLT     yblock
	JMP     ynext

ypartial:
	MOVQ R9, R13
	SHRQ $2, R13
	JZ   ymones

ymgroup:
	ZEROGROUP(ymgroupskip)
	YGROUP(YMULM, (R11), 8(R11), 16(R11), 24(R11))

ymgroupskip:
	ADDQ $32, R11
	LEAQ (R12)(R10*4), R12
	DECQ R13
	JNZ  ymgroup

ymones:
	MOVQ R9, R13
	ANDQ $3, R13
	JZ   ymbias

ymone:
	ZEROONE((R11), ymoneskip)
	YONE(YMULM)

ymoneskip:
	ADDQ $8, R11
	ADDQ R10, R12
	DECQ R13
	JNZ  ymone

ymbias:
	TESTQ      DX, DX
	JZ         ymstore
	VMASKMOVPD (DX)(CX*1), Y13, Y2
	VMASKMOVPD 32(DX)(CX*1), Y14, Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1

ymstore:
	VMASKMOVPD Y0, Y13, (DI)(CX*1)
	VMASKMOVPD Y1, Y14, 32(DI)(CX*1)

ynext:
	ADDQ R10, DI
	LEAQ (SI)(R9*8), SI
	DECQ R8
	JMP  yrow

ydone:
	VZEROUPPER
	RET

// The weight gradient's chunk body under the packed tier's threshold
// (MatMulATBAcc, ops.go), on both SIMD rungs: acc (in×n) += xᵀ·dy over a
// chunk of rows, gemmRows64 with the operands' roles turned. Row i of acc
// is column i of x, read down the chunk (x's row stride is in·8 bytes),
// and dy takes b's place, so a block is again eight columns in lanes, its
// accumulators in registers for the whole chunk. acc is loaded, not
// cleared, and per element the scalar loop (matMulATBScalar) is replayed
// in its order, with no FMA:
//
//	per group of four rows, unless x[r..r+3][i] are all ±0 (ZEROGROUPX):
//	    t = ((x0·dy0 + x1·dy1) + x2·dy2) + x3·dy3;  acc = acc + t
//	per remaining row, unless x[r][i] == ±0:
//	    acc = acc + x·dy
//
// x is rows×in, dy rows×n, acc in×n, all row-major and dense; rows, in,
// n ≥ 1.
//
// Register use: R8 rows of acc left, R9 rows, R10 n·8, AX in·8, DX 3·in·8,
// SI column i of x, DI row i of acc, BX dy, CX the block's byte offset,
// R11 x[r][i], R12 dy[r][block], R13 loop count, R14 scratch.

// ZEROGROUPX jumps to skip when the four x values down the column at R11
// are all ±0: OR-ed together, with the sign bit shifted out, nothing is
// left.
#define ZEROGROUPX(skip) \
	MOVQ (R11), R14; \
	ORQ  (R11)(AX*1), R14; \
	ORQ  (R11)(AX*2), R14; \
	ORQ  (R11)(DX*1), R14; \
	SHLQ $1, R14; \
	JZ   skip

// func gemmATB64(rows, in, n int64, x, dy, acc *float64)
//
// One row of acc at a time, as gemmRows64: full blocks take unmasked loads
// and stores, the last, partial block the lane masks Y13:Y14. Both rungs
// run this one: on a 2-vCPU AVX-512F Xeon guest a zmm twin that paired
// rows ran a 64 × 24 · 64 × 8 chunk 1.8 times as fast, and the train_halo
// benchmark no faster (7 of 10 pairs, +0.7 %).
TEXT ·gemmATB64(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), R9
	MOVQ in+8(FP), R8
	MOVQ n+16(FP), R10
	MOVQ x+24(FP), SI
	MOVQ dy+32(FP), BX
	MOVQ acc+40(FP), DI

	MOVQ     R10, CX
	ANDQ     $7, CX
	MOVQ     $8, R14
	SUBQ     CX, R14
	LEAQ     gemmLaneMask<>(SB), R13
	VMOVUPD  (R13)(R14*8), Y13
	VMOVUPD  32(R13)(R14*8), Y14
	MOVQ     R8, AX
	SHLQ     $3, AX
	LEAQ     (AX)(AX*2), DX
	SHLQ     $3, R10

brow:
	XORQ  CX, CX
	TESTQ R8, R8
	JZ    bdone

bblock:
	MOVQ SI, R11
	LEAQ (BX)(CX*1), R12
	MOVQ R10, R14
	SUBQ CX, R14
	CMPQ R14, $64
	JLT  bpartial
	VMOVUPD (DI)(CX*1), Y0
	VMOVUPD 32(DI)(CX*1), Y1
	MOVQ R9, R13
	SHRQ $2, R13
	JZ   bones

bgroup:
	ZEROGROUPX(bgroupskip)
	YGROUP(YMUL, (R11), (R11)(AX*1), (R11)(AX*2), (R11)(DX*1))

bgroupskip:
	LEAQ (R11)(AX*4), R11
	LEAQ (R12)(R10*4), R12
	DECQ R13
	JNZ  bgroup

bones:
	MOVQ R9, R13
	ANDQ $3, R13
	JZ   bstore

bone:
	ZEROONE((R11), boneskip)
	YONE(YMUL)

boneskip:
	ADDQ AX, R11
	ADDQ R10, R12
	DECQ R13
	JNZ  bone

bstore:
	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 32(DI)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R10
	JLT     bblock
	JMP     bnext

bpartial:
	VMASKMOVPD (DI)(CX*1), Y13, Y0
	VMASKMOVPD 32(DI)(CX*1), Y14, Y1
	MOVQ       R9, R13
	SHRQ       $2, R13
	JZ         bmones

bmgroup:
	ZEROGROUPX(bmgroupskip)
	YGROUP(YMULM, (R11), (R11)(AX*1), (R11)(AX*2), (R11)(DX*1))

bmgroupskip:
	LEAQ (R11)(AX*4), R11
	LEAQ (R12)(R10*4), R12
	DECQ R13
	JNZ  bmgroup

bmones:
	MOVQ R9, R13
	ANDQ $3, R13
	JZ   bmstore

bmone:
	ZEROONE((R11), bmoneskip)
	YONE(YMULM)

bmoneskip:
	ADDQ AX, R11
	ADDQ R10, R12
	DECQ R13
	JNZ  bmone

bmstore:
	VMASKMOVPD Y0, Y13, (DI)(CX*1)
	VMASKMOVPD Y1, Y14, 32(DI)(CX*1)

bnext:
	ADDQ R10, DI
	ADDQ $8, SI
	DECQ R8
	JMP  brow

bdone:
	VZEROUPPER
	RET
