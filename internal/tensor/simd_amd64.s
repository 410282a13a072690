// FMA microkernels of the GEMMs: one tile contract, two element types
// (float64 d-tiles, float32 s-tiles), two rungs (AVX-512F zmm, AVX2 ymm).
//
// Every tile computes "rows × panels" of one shape: a register tile of C,
// MR rows by one or two adjacent 64-byte panels (8 float64 or 16 float32
// columns), accumulated over kc inner-dimension steps. Per step a tile
// loads one 64-byte vector per panel (panel q at bp + q*panelStride,
// advancing bstride bytes), broadcasts one A element per tile row (row r
// at a + r*lda, advancing astride bytes) and issues one fused multiply-add
// per (row, panel). Row r of C is at c + r*ldc; the panels' columns are
// adjacent there. Strides are in bytes, so the same numbers describe
// either element type.
//
//   dgemmTile8 / sgemmTile8   8 rows × 2 panels   16 zmm accumulators   AVX-512F
//   dgemmTile8x1              8 rows × 1 panel     8 zmm accumulators   AVX-512F
//                             (any number of 8-row stripes per call)
//   dgemmTile4 / sgemmTile4   4 rows × 1 panel     8 ymm accumulators   AVX2
//   dgemmTile1 / sgemmTile1   1 row  × 1 panel     2 ymm accumulators   AVX2
//
// The one-panel tiles take the panel's live lanes (1 to 8 float64, 1 to
// 16 float32): a partial last panel — N mod 8 or N mod 16 columns — is
// loaded, stored and given its bias through lane masks, and no load or
// store leaves its live lanes, so the row-major B operands (a b row is N
// wide) are read in place. The two-panel tiles are given whole panels only.
//
// Whatever the tile, an output element sees the same sequence: plain
// ascending-k fused multiply-adds into its own lane, then (bias != nil)
// one rounded add of its column's bias — for float64, the definition
// fmaRows (gemm.go) spells in Go. So an element's bits are a
// function of its row and column alone — never of the tile that held it,
// the SIMD rung, the chunk boundaries or the thread count — and the one
// driver (tileGrid.sweep, gemm.go) is free to cover a row range
// with the tallest tiles that fit and finish heads, tails and a last panel
// with the narrower ones.
//
// The strides make one tile serve every GEMM form (byte counts):
//   MatMulBiasRows   dst = a·b     a rows (lda = 8·K, astride 8), raw b
//                                  rows (panelStride 64, bstride = 8·N):
//                                  every float64 a·b, and a·bᵀ on the
//                                  transpose
//   MatMul32BiasRows dst = a·b     a rows (lda = 4·K, astride 4), raw b
//                                  rows (panelStride 64, bstride = 4·N):
//                                  every float32 a·b
//   MatMulATBAcc     acc += aᵀ·b   a columns (lda 8, astride = 8·lda of a),
//                                  raw b rows (panelStride 64, bstride = 8·ldb)
//
// acc != 0 (the d-tiles only) loads the existing C tile instead of zeroing
// it, which is how a weight-gradient chunk taken in pieces resumes the
// accumulation without changing the per-element order. bias != nil adds
// the 64 bytes of bias per panel to every tile row before the store: the
// linear layer's bias add as the tile's epilogue: sum + b is one rounded
// add, the same bits whichever way round a scalar loop writes it, and NaN
// where it is — which NaN, where two meet, is not part of the contract
// (pack.go).

#include "textflag.h"

// Lane indexes 0…7: lane j of a panel with lanes live lanes is live where
// j < lanes.
DATA gemmIota<>+0(SB)/8, $0
DATA gemmIota<>+8(SB)/8, $1
DATA gemmIota<>+16(SB)/8, $2
DATA gemmIota<>+24(SB)/8, $3
DATA gemmIota<>+32(SB)/8, $4
DATA gemmIota<>+40(SB)/8, $5
DATA gemmIota<>+48(SB)/8, $6
DATA gemmIota<>+56(SB)/8, $7
GLOBL gemmIota<>(SB), RODATA|NOPTR, $64

// YMASK sets Y14 (lanes 0–3) and Y15 (lanes 4–7) to the live lanes of a
// panel whose live-lane count is at m.
#define YMASK(m) \
	VPBROADCASTQ m, Y15; \
	VPCMPGTQ     gemmIota<>+0(SB), Y15, Y14; \
	VPCMPGTQ     gemmIota<>+32(SB), Y15, Y15

// D4FMA is one k step of the 4-row tile on the panel vector in Y8, Y9.
#define D4FMA \
	VBROADCASTSD (R8), Y10; \
	VFMADD231PD  Y8, Y10, Y0; \
	VFMADD231PD  Y9, Y10, Y1; \
	VBROADCASTSD (R8)(R9*1), Y11; \
	VFMADD231PD  Y8, Y11, Y2; \
	VFMADD231PD  Y9, Y11, Y3; \
	VBROADCASTSD (R8)(R9*2), Y12; \
	VFMADD231PD  Y8, Y12, Y4; \
	VFMADD231PD  Y9, Y12, Y5; \
	VBROADCASTSD (R8)(R10*1), Y13; \
	VFMADD231PD  Y8, Y13, Y6; \
	VFMADD231PD  Y9, Y13, Y7

// func dgemmTile8(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc int64)
TEXT ·dgemmTile8(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ panelStride+40(FP), SI
	MOVQ bstride+48(FP), R13
	MOVQ ldc+64(FP), DI
	ADDQ BX, SI               // second panel
	LEAQ (R9)(R9*2), R10      // 3·lda
	LEAQ (R9)(R9*4), R11      // 5·lda
	LEAQ (R10)(R9*4), R12     // 7·lda

	MOVQ  acc+80(FP), DX
	TESTQ DX, DX
	JNZ   load8

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	JMP    body8

load8:
	MOVQ    c+56(FP), DX
	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	ADDQ    DI, DX
	VMOVUPD (DX), Z2
	VMOVUPD 64(DX), Z3
	ADDQ    DI, DX
	VMOVUPD (DX), Z4
	VMOVUPD 64(DX), Z5
	ADDQ    DI, DX
	VMOVUPD (DX), Z6
	VMOVUPD 64(DX), Z7
	ADDQ    DI, DX
	VMOVUPD (DX), Z8
	VMOVUPD 64(DX), Z9
	ADDQ    DI, DX
	VMOVUPD (DX), Z10
	VMOVUPD 64(DX), Z11
	ADDQ    DI, DX
	VMOVUPD (DX), Z12
	VMOVUPD 64(DX), Z13
	ADDQ    DI, DX
	VMOVUPD (DX), Z14
	VMOVUPD 64(DX), Z15

body8:
	TESTQ AX, AX
	JZ    bias8

loop8:
	VMOVUPD (BX), Z16
	VMOVUPD (SI), Z17

	VBROADCASTSD (R8), Z18
	VFMADD231PD  Z16, Z18, Z0
	VFMADD231PD  Z17, Z18, Z1

	VBROADCASTSD (R8)(R9*1), Z19
	VFMADD231PD  Z16, Z19, Z2
	VFMADD231PD  Z17, Z19, Z3

	VBROADCASTSD (R8)(R9*2), Z20
	VFMADD231PD  Z16, Z20, Z4
	VFMADD231PD  Z17, Z20, Z5

	VBROADCASTSD (R8)(R10*1), Z21
	VFMADD231PD  Z16, Z21, Z6
	VFMADD231PD  Z17, Z21, Z7

	VBROADCASTSD (R8)(R9*4), Z22
	VFMADD231PD  Z16, Z22, Z8
	VFMADD231PD  Z17, Z22, Z9

	VBROADCASTSD (R8)(R11*1), Z23
	VFMADD231PD  Z16, Z23, Z10
	VFMADD231PD  Z17, Z23, Z11

	VBROADCASTSD (R8)(R10*2), Z24
	VFMADD231PD  Z16, Z24, Z12
	VFMADD231PD  Z17, Z24, Z13

	VBROADCASTSD (R8)(R12*1), Z25
	VFMADD231PD  Z16, Z25, Z14
	VFMADD231PD  Z17, Z25, Z15

	ADDQ R13, BX
	ADDQ R13, SI
	ADDQ CX, R8
	DECQ AX
	JNZ  loop8

bias8:
	MOVQ  bias+72(FP), DX
	TESTQ DX, DX
	JZ    store8
	VMOVUPD (DX), Z16
	VMOVUPD 64(DX), Z17
	VADDPD  Z16, Z0, Z0
	VADDPD  Z17, Z1, Z1
	VADDPD  Z16, Z2, Z2
	VADDPD  Z17, Z3, Z3
	VADDPD  Z16, Z4, Z4
	VADDPD  Z17, Z5, Z5
	VADDPD  Z16, Z6, Z6
	VADDPD  Z17, Z7, Z7
	VADDPD  Z16, Z8, Z8
	VADDPD  Z17, Z9, Z9
	VADDPD  Z16, Z10, Z10
	VADDPD  Z17, Z11, Z11
	VADDPD  Z16, Z12, Z12
	VADDPD  Z17, Z13, Z13
	VADDPD  Z16, Z14, Z14
	VADDPD  Z17, Z15, Z15

store8:
	MOVQ    c+56(FP), DX
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	ADDQ    DI, DX
	VMOVUPD Z2, (DX)
	VMOVUPD Z3, 64(DX)
	ADDQ    DI, DX
	VMOVUPD Z4, (DX)
	VMOVUPD Z5, 64(DX)
	ADDQ    DI, DX
	VMOVUPD Z6, (DX)
	VMOVUPD Z7, 64(DX)
	ADDQ    DI, DX
	VMOVUPD Z8, (DX)
	VMOVUPD Z9, 64(DX)
	ADDQ    DI, DX
	VMOVUPD Z10, (DX)
	VMOVUPD Z11, 64(DX)
	ADDQ    DI, DX
	VMOVUPD Z12, (DX)
	VMOVUPD Z13, 64(DX)
	ADDQ    DI, DX
	VMOVUPD Z14, (DX)
	VMOVUPD Z15, 64(DX)
	VZEROUPPER
	RET

// func dgemmTile8x1(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes, stripes int64)
//
// Eight rows of one panel, whole or partial — a single or a last partial
// panel under 8-row stripes — for stripes stripes one after the other: a
// and c advance 8·lda and 8·ldc bytes per stripe, so one call walks every
// stripe of a range down the panel. Every load and store of b, c and the
// bias is masked to the live lanes (K1), which costs a zmm nothing;
// panelStride is not read.
TEXT ·dgemmTile8x1(SB), NOSPLIT, $0-104
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	MOVQ astride+24(FP), CX
	MOVQ bstride+48(FP), R13
	MOVQ c+56(FP), R14
	MOVQ ldc+64(FP), DI
	LEAQ (R9)(R9*2), R10  // 3·lda
	LEAQ (R9)(R9*4), R11  // 5·lda
	LEAQ (R10)(R9*4), R12 // 7·lda

	VPBROADCASTQ lanes+88(FP), Z16
	VPCMPQ       $6, gemmIota<>+0(SB), Z16, K1

stripe8x1:
	MOVQ  kc+0(FP), AX
	MOVQ  SI, R8
	MOVQ  bp+32(FP), BX
	MOVQ  acc+80(FP), DX
	TESTQ DX, DX
	JNZ   load8x1

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    body8x1

load8x1:
	MOVQ      R14, DX
	VMOVUPD.Z (DX), K1, Z0
	ADDQ      DI, DX
	VMOVUPD.Z (DX), K1, Z1
	ADDQ      DI, DX
	VMOVUPD.Z (DX), K1, Z2
	ADDQ      DI, DX
	VMOVUPD.Z (DX), K1, Z3
	ADDQ      DI, DX
	VMOVUPD.Z (DX), K1, Z4
	ADDQ      DI, DX
	VMOVUPD.Z (DX), K1, Z5
	ADDQ      DI, DX
	VMOVUPD.Z (DX), K1, Z6
	ADDQ      DI, DX
	VMOVUPD.Z (DX), K1, Z7

body8x1:
	TESTQ AX, AX
	JZ    bias8x1

loop8x1:
	VMOVUPD.Z        (BX), K1, Z16
	VFMADD231PD.BCST (R8), Z16, Z0
	VFMADD231PD.BCST (R8)(R9*1), Z16, Z1
	VFMADD231PD.BCST (R8)(R9*2), Z16, Z2
	VFMADD231PD.BCST (R8)(R10*1), Z16, Z3
	VFMADD231PD.BCST (R8)(R9*4), Z16, Z4
	VFMADD231PD.BCST (R8)(R11*1), Z16, Z5
	VFMADD231PD.BCST (R8)(R10*2), Z16, Z6
	VFMADD231PD.BCST (R8)(R12*1), Z16, Z7
	ADDQ             R13, BX
	ADDQ             CX, R8
	DECQ             AX
	JNZ              loop8x1

bias8x1:
	MOVQ      bias+72(FP), DX
	TESTQ     DX, DX
	JZ        store8x1
	VMOVUPD.Z (DX), K1, Z16
	VADDPD    Z16, Z0, Z0
	VADDPD    Z16, Z1, Z1
	VADDPD    Z16, Z2, Z2
	VADDPD    Z16, Z3, Z3
	VADDPD    Z16, Z4, Z4
	VADDPD    Z16, Z5, Z5
	VADDPD    Z16, Z6, Z6
	VADDPD    Z16, Z7, Z7

store8x1:
	MOVQ    R14, DX
	VMOVUPD Z0, K1, (DX)
	ADDQ    DI, DX
	VMOVUPD Z1, K1, (DX)
	ADDQ    DI, DX
	VMOVUPD Z2, K1, (DX)
	ADDQ    DI, DX
	VMOVUPD Z3, K1, (DX)
	ADDQ    DI, DX
	VMOVUPD Z4, K1, (DX)
	ADDQ    DI, DX
	VMOVUPD Z5, K1, (DX)
	ADDQ    DI, DX
	VMOVUPD Z6, K1, (DX)
	ADDQ    DI, DX
	VMOVUPD Z7, K1, (DX)

	LEAQ (SI)(R9*8), SI
	LEAQ (R14)(DI*8), R14
	DECQ stripes+96(FP)
	JNZ  stripe8x1
	VZEROUPPER
	RET

// func dgemmTile4(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes int64)
//
// The AVX2 rung's full tile, and on the AVX-512 rung the tile for four-row
// heads and tails. One panel: panelStride is not read. A whole panel takes
// plain loads and stores; a partial one (lanes < 8) the same steps through
// the lane masks in Y14, Y15.
TEXT ·dgemmTile4(SB), NOSPLIT, $0-96
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ bstride+48(FP), R13
	MOVQ ldc+64(FP), DI
	LEAQ (R9)(R9*2), R10 // 3·lda

	MOVQ lanes+88(FP), DX
	CMPQ DX, $8
	JNE  masked4

	MOVQ  acc+80(FP), DX
	TESTQ DX, DX
	JNZ   load4

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    body4

load4:
	MOVQ    c+56(FP), DX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	ADDQ    DI, DX
	VMOVUPD (DX), Y2
	VMOVUPD 32(DX), Y3
	ADDQ    DI, DX
	VMOVUPD (DX), Y4
	VMOVUPD 32(DX), Y5
	ADDQ    DI, DX
	VMOVUPD (DX), Y6
	VMOVUPD 32(DX), Y7

body4:
	TESTQ AX, AX
	JZ    bias4

loop4:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	D4FMA
	ADDQ    R13, BX
	ADDQ    CX, R8
	DECQ    AX
	JNZ     loop4

bias4:
	MOVQ  bias+72(FP), DX
	TESTQ DX, DX
	JZ    store4
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7

store4:
	MOVQ    c+56(FP), DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    DI, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    DI, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    DI, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	RET

masked4:
	YMASK(lanes+88(FP))
	MOVQ  acc+80(FP), DX
	TESTQ DX, DX
	JNZ   mload4

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    mbody4

mload4:
	MOVQ       c+56(FP), DX
	VMASKMOVPD (DX), Y14, Y0
	VMASKMOVPD 32(DX), Y15, Y1
	ADDQ       DI, DX
	VMASKMOVPD (DX), Y14, Y2
	VMASKMOVPD 32(DX), Y15, Y3
	ADDQ       DI, DX
	VMASKMOVPD (DX), Y14, Y4
	VMASKMOVPD 32(DX), Y15, Y5
	ADDQ       DI, DX
	VMASKMOVPD (DX), Y14, Y6
	VMASKMOVPD 32(DX), Y15, Y7

mbody4:
	TESTQ AX, AX
	JZ    mbias4

mloop4:
	VMASKMOVPD (BX), Y14, Y8
	VMASKMOVPD 32(BX), Y15, Y9
	D4FMA
	ADDQ       R13, BX
	ADDQ       CX, R8
	DECQ       AX
	JNZ        mloop4

mbias4:
	MOVQ       bias+72(FP), DX
	TESTQ      DX, DX
	JZ         mstore4
	VMASKMOVPD (DX), Y14, Y8
	VMASKMOVPD 32(DX), Y15, Y9
	VADDPD     Y8, Y0, Y0
	VADDPD     Y9, Y1, Y1
	VADDPD     Y8, Y2, Y2
	VADDPD     Y9, Y3, Y3
	VADDPD     Y8, Y4, Y4
	VADDPD     Y9, Y5, Y5
	VADDPD     Y8, Y6, Y6
	VADDPD     Y9, Y7, Y7

mstore4:
	MOVQ       c+56(FP), DX
	VMASKMOVPD Y0, Y14, (DX)
	VMASKMOVPD Y1, Y15, 32(DX)
	ADDQ       DI, DX
	VMASKMOVPD Y2, Y14, (DX)
	VMASKMOVPD Y3, Y15, 32(DX)
	ADDQ       DI, DX
	VMASKMOVPD Y4, Y14, (DX)
	VMASKMOVPD Y5, Y15, 32(DX)
	ADDQ       DI, DX
	VMASKMOVPD Y6, Y14, (DX)
	VMASKMOVPD Y7, Y15, 32(DX)
	VZEROUPPER
	RET

// func dgemmTile1(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes int64)
//
// One row, one panel (lda, panelStride and ldc are not read): the rows
// left over when a range is not a multiple of four. Every load and store
// goes through the lane masks, whole panel or partial.
TEXT ·dgemmTile1(SB), NOSPLIT, $0-96
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ bstride+48(FP), R13
	MOVQ c+56(FP), DI
	YMASK(lanes+88(FP))

	MOVQ  acc+80(FP), DX
	TESTQ DX, DX
	JNZ   load1

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP    body1

load1:
	VMASKMOVPD (DI), Y14, Y0
	VMASKMOVPD 32(DI), Y15, Y1

body1:
	TESTQ AX, AX
	JZ    bias1

loop1:
	VMASKMOVPD   (BX), Y14, Y8
	VMASKMOVPD   32(BX), Y15, Y9
	VBROADCASTSD (R8), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	ADDQ         R13, BX
	ADDQ         CX, R8
	DECQ         AX
	JNZ          loop1

bias1:
	MOVQ       bias+72(FP), DX
	TESTQ      DX, DX
	JZ         store1
	VMASKMOVPD (DX), Y14, Y8
	VMASKMOVPD 32(DX), Y15, Y9
	VADDPD     Y8, Y0, Y0
	VADDPD     Y9, Y1, Y1

store1:
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)
	VZEROUPPER
	RET

// --- float32: the same three tiles on 16-lane panels ------------------------
//
// Each is its float64 namesake with PD -> PS, SD -> SS and Q -> D in the
// lane masks: a float32 panel step is 16 lanes = 64 bytes, as a float64 one
// is 8 lanes = 64 bytes, so the byte strides, the accumulator layout and the
// bias epilogue carry over unchanged. Two things differ. No float32 product
// resumes an accumulation, so the s-tiles take no acc and always start from
// +0. And there is no float32 8 × 1 tile: tileGrid.sweep covers a lone or
// partial float32 panel with the 4-row and 1-row tiles, which take the
// panel's live lanes, 1 to 16, as dgemmTile4 and dgemmTile1 do.

// Lane indexes 0…15 of a float32 panel, as dwords.
DATA gemmIota32<>+0(SB)/4, $0
DATA gemmIota32<>+4(SB)/4, $1
DATA gemmIota32<>+8(SB)/4, $2
DATA gemmIota32<>+12(SB)/4, $3
DATA gemmIota32<>+16(SB)/4, $4
DATA gemmIota32<>+20(SB)/4, $5
DATA gemmIota32<>+24(SB)/4, $6
DATA gemmIota32<>+28(SB)/4, $7
DATA gemmIota32<>+32(SB)/4, $8
DATA gemmIota32<>+36(SB)/4, $9
DATA gemmIota32<>+40(SB)/4, $10
DATA gemmIota32<>+44(SB)/4, $11
DATA gemmIota32<>+48(SB)/4, $12
DATA gemmIota32<>+52(SB)/4, $13
DATA gemmIota32<>+56(SB)/4, $14
DATA gemmIota32<>+60(SB)/4, $15
GLOBL gemmIota32<>(SB), RODATA|NOPTR, $64

// SMASK sets Y14 (lanes 0–7) and Y15 (lanes 8–15) to the live lanes of a
// float32 panel whose live-lane count is at m.
#define SMASK(m) \
	VPBROADCASTD m, Y15; \
	VPCMPGTD     gemmIota32<>+0(SB), Y15, Y14; \
	VPCMPGTD     gemmIota32<>+32(SB), Y15, Y15

// S4FMA is one k step of the float32 4-row tile on the panel vector in Y8,
// Y9.
#define S4FMA \
	VBROADCASTSS (R8), Y10; \
	VFMADD231PS  Y8, Y10, Y0; \
	VFMADD231PS  Y9, Y10, Y1; \
	VBROADCASTSS (R8)(R9*1), Y11; \
	VFMADD231PS  Y8, Y11, Y2; \
	VFMADD231PS  Y9, Y11, Y3; \
	VBROADCASTSS (R8)(R9*2), Y12; \
	VFMADD231PS  Y8, Y12, Y4; \
	VFMADD231PS  Y9, Y12, Y5; \
	VBROADCASTSS (R8)(R10*1), Y13; \
	VFMADD231PS  Y8, Y13, Y6; \
	VFMADD231PS  Y9, Y13, Y7

// S4BIAS adds the panel's bias, in Y8 and Y9, to the 4-row tile.
#define S4BIAS \
	VADDPS Y8, Y0, Y0; \
	VADDPS Y9, Y1, Y1; \
	VADDPS Y8, Y2, Y2; \
	VADDPS Y9, Y3, Y3; \
	VADDPS Y8, Y4, Y4; \
	VADDPS Y9, Y5, Y5; \
	VADDPS Y8, Y6, Y6; \
	VADDPS Y9, Y7, Y7

// func sgemmTile8(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32)
//
// Two whole panels: tileGrid.sweep gives it nothing partial.
TEXT ·sgemmTile8(SB), NOSPLIT, $0-80
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ panelStride+40(FP), SI
	MOVQ bstride+48(FP), R13
	MOVQ ldc+64(FP), DI
	ADDQ BX, SI               // second panel
	LEAQ (R9)(R9*2), R10      // 3·lda
	LEAQ (R9)(R9*4), R11      // 5·lda
	LEAQ (R10)(R9*4), R12     // 7·lda

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	TESTQ  AX, AX
	JZ     sbias8

sloop8:
	VMOVUPS (BX), Z16
	VMOVUPS (SI), Z17

	VBROADCASTSS (R8), Z18
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z17, Z18, Z1

	VBROADCASTSS (R8)(R9*1), Z19
	VFMADD231PS  Z16, Z19, Z2
	VFMADD231PS  Z17, Z19, Z3

	VBROADCASTSS (R8)(R9*2), Z20
	VFMADD231PS  Z16, Z20, Z4
	VFMADD231PS  Z17, Z20, Z5

	VBROADCASTSS (R8)(R10*1), Z21
	VFMADD231PS  Z16, Z21, Z6
	VFMADD231PS  Z17, Z21, Z7

	VBROADCASTSS (R8)(R9*4), Z22
	VFMADD231PS  Z16, Z22, Z8
	VFMADD231PS  Z17, Z22, Z9

	VBROADCASTSS (R8)(R11*1), Z23
	VFMADD231PS  Z16, Z23, Z10
	VFMADD231PS  Z17, Z23, Z11

	VBROADCASTSS (R8)(R10*2), Z24
	VFMADD231PS  Z16, Z24, Z12
	VFMADD231PS  Z17, Z24, Z13

	VBROADCASTSS (R8)(R12*1), Z25
	VFMADD231PS  Z16, Z25, Z14
	VFMADD231PS  Z17, Z25, Z15

	ADDQ R13, BX
	ADDQ R13, SI
	ADDQ CX, R8
	DECQ AX
	JNZ  sloop8

sbias8:
	MOVQ  bias+72(FP), DX
	TESTQ DX, DX
	JZ    sstore8
	VMOVUPS (DX), Z16
	VMOVUPS 64(DX), Z17
	VADDPS  Z16, Z0, Z0
	VADDPS  Z17, Z1, Z1
	VADDPS  Z16, Z2, Z2
	VADDPS  Z17, Z3, Z3
	VADDPS  Z16, Z4, Z4
	VADDPS  Z17, Z5, Z5
	VADDPS  Z16, Z6, Z6
	VADDPS  Z17, Z7, Z7
	VADDPS  Z16, Z8, Z8
	VADDPS  Z17, Z9, Z9
	VADDPS  Z16, Z10, Z10
	VADDPS  Z17, Z11, Z11
	VADDPS  Z16, Z12, Z12
	VADDPS  Z17, Z13, Z13
	VADDPS  Z16, Z14, Z14
	VADDPS  Z17, Z15, Z15

sstore8:
	MOVQ    c+56(FP), DX
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	ADDQ    DI, DX
	VMOVUPS Z2, (DX)
	VMOVUPS Z3, 64(DX)
	ADDQ    DI, DX
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, 64(DX)
	ADDQ    DI, DX
	VMOVUPS Z6, (DX)
	VMOVUPS Z7, 64(DX)
	ADDQ    DI, DX
	VMOVUPS Z8, (DX)
	VMOVUPS Z9, 64(DX)
	ADDQ    DI, DX
	VMOVUPS Z10, (DX)
	VMOVUPS Z11, 64(DX)
	ADDQ    DI, DX
	VMOVUPS Z12, (DX)
	VMOVUPS Z13, 64(DX)
	ADDQ    DI, DX
	VMOVUPS Z14, (DX)
	VMOVUPS Z15, 64(DX)
	VZEROUPPER
	RET

// func sgemmTile4(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, lanes int64)
//
// The AVX2 rung's full tile, and on the AVX-512 rung the tile for four-row
// heads and tails and for a lone or partial last panel. One panel:
// panelStride is not read. A whole panel takes plain loads and stores; a
// partial one (lanes < 16) the same steps through the lane masks in Y14,
// Y15.
TEXT ·sgemmTile4(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ bstride+48(FP), R13
	MOVQ ldc+64(FP), DI
	LEAQ (R9)(R9*2), R10 // 3·lda

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ lanes+80(FP), DX
	CMPQ DX, $16
	JNE  smasked4
	TESTQ AX, AX
	JZ    sbias4

sloop4:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	S4FMA
	ADDQ    R13, BX
	ADDQ    CX, R8
	DECQ    AX
	JNZ     sloop4

sbias4:
	MOVQ  bias+72(FP), DX
	TESTQ DX, DX
	JZ    sstore4
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	S4BIAS

sstore4:
	MOVQ    c+56(FP), DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    DI, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    DI, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    DI, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	RET

smasked4:
	SMASK(lanes+80(FP))
	TESTQ AX, AX
	JZ    smbias4

smloop4:
	VMASKMOVPS (BX), Y14, Y8
	VMASKMOVPS 32(BX), Y15, Y9
	S4FMA
	ADDQ       R13, BX
	ADDQ       CX, R8
	DECQ       AX
	JNZ        smloop4

smbias4:
	MOVQ       bias+72(FP), DX
	TESTQ      DX, DX
	JZ         smstore4
	VMASKMOVPS (DX), Y14, Y8
	VMASKMOVPS 32(DX), Y15, Y9
	S4BIAS

smstore4:
	MOVQ       c+56(FP), DX
	VMASKMOVPS Y0, Y14, (DX)
	VMASKMOVPS Y1, Y15, 32(DX)
	ADDQ       DI, DX
	VMASKMOVPS Y2, Y14, (DX)
	VMASKMOVPS Y3, Y15, 32(DX)
	ADDQ       DI, DX
	VMASKMOVPS Y4, Y14, (DX)
	VMASKMOVPS Y5, Y15, 32(DX)
	ADDQ       DI, DX
	VMASKMOVPS Y6, Y14, (DX)
	VMASKMOVPS Y7, Y15, 32(DX)
	VZEROUPPER
	RET

// func sgemmTile1(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, lanes int64)
//
// One row, one panel (lda, panelStride and ldc are not read): the rows
// left over when a range is not a multiple of four. Every load and store
// goes through the lane masks, whole panel or partial.
TEXT ·sgemmTile1(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ bstride+48(FP), R13
	MOVQ c+56(FP), DI
	SMASK(lanes+80(FP))

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TESTQ  AX, AX
	JZ     sbias1

sloop1:
	VMASKMOVPS   (BX), Y14, Y8
	VMASKMOVPS   32(BX), Y15, Y9
	VBROADCASTSS (R8), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	ADDQ         R13, BX
	ADDQ         CX, R8
	DECQ         AX
	JNZ          sloop1

sbias1:
	MOVQ       bias+72(FP), DX
	TESTQ      DX, DX
	JZ         sstore1
	VMASKMOVPS (DX), Y14, Y8
	VMASKMOVPS 32(DX), Y15, Y9
	VADDPS     Y8, Y0, Y0
	VADDPS     Y9, Y1, Y1

sstore1:
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	VZEROUPPER
	RET

// func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
