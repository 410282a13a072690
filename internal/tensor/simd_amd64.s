// FMA microkernels for the packed cache-blocked GEMM tier: one tile
// contract, two element types (float64 d-tiles, float32 s-tiles), two
// rungs (AVX-512F zmm, AVX2 ymm).
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
//   dgemmTile4 / sgemmTile4   4 rows × 1 panel     8 ymm accumulators   AVX2
//   dgemmTile1 / sgemmTile1   1 row  × 1 panel     2 ymm accumulators   AVX2
//
// Whatever the tile, an output element sees the same sequence: plain
// ascending-k fused multiply-adds into its own lane, then (bias != nil)
// one rounded add of its column's bias. So an element's bits are a
// function of its row, its column panel and the Kc split alone — never of
// the tile that held it, the rung, the chunk boundaries or the thread
// count — and the one driver (tileGrid.sweep, gemm_packed.go) is free to
// cover a row range with the tallest tiles that fit and finish heads,
// tails and an odd last panel with the narrower ones.
//
// The strides make one tile serve all three GEMM forms (byte counts for
// float64; MatMul32 is the first line with 4·K and the same 64s):
//   MatMul    dst = a·b    a rows (lda = 8·K, astride 8), packed B panels
//                          (panelStride = 64·K, bstride 64)
//   MatMulABT dst = a·bᵀ   the same, on transposed-packed panels
//   MatMulATB dst = aᵀ·b   a columns (lda 8, astride = 8·lda of a), raw b
//                          rows (panelStride 64, bstride = 8·ldb) —
//                          packing degenerates to the natural layout
//
// acc != 0 loads the existing C tile instead of zeroing it, which is how
// Kc blocks beyond the first resume the accumulation without changing
// the per-element order. bias != nil adds the 64 bytes of bias per panel
// to every tile row before the store: the linear layer's bias add as the
// epilogue of the last Kc block: sum + b is one rounded add, the same
// bits whichever way round a scalar loop writes it, and NaN where it is —
// which NaN, where two meet, is not part of the contract (pack.go).

#include "textflag.h"

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

// func dgemmTile4(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc int64)
//
// The AVX2 rung's full tile, and on the AVX-512 rung the tile for four-row
// heads and tails and for an odd last panel. One panel: panelStride is
// not read.
TEXT ·dgemmTile4(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ bstride+48(FP), R13
	MOVQ ldc+64(FP), DI
	LEAQ (R9)(R9*2), R10 // 3·lda

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

	VBROADCASTSD (R8), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1

	VBROADCASTSD (R8)(R9*1), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3

	VBROADCASTSD (R8)(R9*2), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5

	VBROADCASTSD (R8)(R10*1), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

	ADDQ R13, BX
	ADDQ CX, R8
	DECQ AX
	JNZ  loop4

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

// func dgemmTile1(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc int64)
//
// One row, one panel (lda, panelStride and ldc are not read): the rows
// left over when a range is not a multiple of four.
TEXT ·dgemmTile1(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ bstride+48(FP), R13
	MOVQ c+56(FP), DI

	MOVQ  acc+80(FP), DX
	TESTQ DX, DX
	JNZ   load1

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP    body1

load1:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1

body1:
	TESTQ AX, AX
	JZ    bias1

loop1:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (R8), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	ADDQ         R13, BX
	ADDQ         CX, R8
	DECQ         AX
	JNZ          loop1

bias1:
	MOVQ  bias+72(FP), DX
	TESTQ DX, DX
	JZ    store1
	VADDPD (DX), Y0, Y0
	VADDPD 32(DX), Y1, Y1

store1:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// --- float32: the same three tiles on 16-lane panels ------------------------
//
// Each is its float64 namesake with PD -> PS and SD -> SS and nothing else:
// a float32 panel step is 16 lanes = 64 bytes, as a float64 one is 8 lanes =
// 64 bytes, so the byte strides, the accumulator layout and the bias
// epilogue carry over unchanged.

// func sgemmTile8(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, acc int64)
TEXT ·sgemmTile8(SB), NOSPLIT, $0-88
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
	JNZ   sload8

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
	JMP    sbody8

sload8:
	MOVQ    c+56(FP), DX
	VMOVUPS (DX), Z0
	VMOVUPS 64(DX), Z1
	ADDQ    DI, DX
	VMOVUPS (DX), Z2
	VMOVUPS 64(DX), Z3
	ADDQ    DI, DX
	VMOVUPS (DX), Z4
	VMOVUPS 64(DX), Z5
	ADDQ    DI, DX
	VMOVUPS (DX), Z6
	VMOVUPS 64(DX), Z7
	ADDQ    DI, DX
	VMOVUPS (DX), Z8
	VMOVUPS 64(DX), Z9
	ADDQ    DI, DX
	VMOVUPS (DX), Z10
	VMOVUPS 64(DX), Z11
	ADDQ    DI, DX
	VMOVUPS (DX), Z12
	VMOVUPS 64(DX), Z13
	ADDQ    DI, DX
	VMOVUPS (DX), Z14
	VMOVUPS 64(DX), Z15

sbody8:
	TESTQ AX, AX
	JZ    sbias8

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

// func sgemmTile4(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, acc int64)
//
// The AVX2 rung's full tile, and on the AVX-512 rung the tile for four-row
// heads and tails and for an odd last panel. One panel: panelStride is
// not read.
TEXT ·sgemmTile4(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R9
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ bstride+48(FP), R13
	MOVQ ldc+64(FP), DI
	LEAQ (R9)(R9*2), R10 // 3·lda

	MOVQ  acc+80(FP), DX
	TESTQ DX, DX
	JNZ   sload4

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP    sbody4

sload4:
	MOVQ    c+56(FP), DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	ADDQ    DI, DX
	VMOVUPS (DX), Y2
	VMOVUPS 32(DX), Y3
	ADDQ    DI, DX
	VMOVUPS (DX), Y4
	VMOVUPS 32(DX), Y5
	ADDQ    DI, DX
	VMOVUPS (DX), Y6
	VMOVUPS 32(DX), Y7

sbody4:
	TESTQ AX, AX
	JZ    sbias4

sloop4:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9

	VBROADCASTSS (R8), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1

	VBROADCASTSS (R8)(R9*1), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3

	VBROADCASTSS (R8)(R9*2), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5

	VBROADCASTSS (R8)(R10*1), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7

	ADDQ R13, BX
	ADDQ CX, R8
	DECQ AX
	JNZ  sloop4

sbias4:
	MOVQ  bias+72(FP), DX
	TESTQ DX, DX
	JZ    sstore4
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y9, Y3, Y3
	VADDPS  Y8, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VADDPS  Y8, Y6, Y6
	VADDPS  Y9, Y7, Y7

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

// func sgemmTile1(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, acc int64)
//
// One row, one panel (lda, panelStride and ldc are not read): the rows
// left over when a range is not a multiple of four.
TEXT ·sgemmTile1(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), AX
	MOVQ a+8(FP), R8
	MOVQ astride+24(FP), CX
	MOVQ bp+32(FP), BX
	MOVQ bstride+48(FP), R13
	MOVQ c+56(FP), DI

	MOVQ  acc+80(FP), DX
	TESTQ DX, DX
	JNZ   sload1

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	JMP    sbody1

sload1:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1

sbody1:
	TESTQ AX, AX
	JZ    sbias1

sloop1:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (R8), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	ADDQ         R13, BX
	ADDQ         CX, R8
	DECQ         AX
	JNZ          sloop1

sbias1:
	MOVQ  bias+72(FP), DX
	TESTQ DX, DX
	JZ    sstore1
	VADDPS (DX), Y0, Y0
	VADDPS 32(DX), Y1, Y1

sstore1:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
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
