// AVX-512F and AVX2 kernels for the column accumulations of the backward
// pass (ops.go's ColSumsAcc, layernorm64.go's LayerNormParamGradAcc) and
// for the span sums of the message-passing layer (span.go's SpanAcc, at
// the end of the file). The column accumulations are
//
//	sum[j] += a[i][j]                 for every row i, ascending
//	dot[j] += a[i][j]·b[i][j]         the same, where b is not nil
//
// A column's sum is one serial chain of rounded adds by definition, so the
// lanes hold COLUMNS and the chain runs down the rows with its accumulator
// in a register: a pass loads up to four vectors of sum (and dot) once,
// adds every row of the range into them and stores them once, where the
// scalar loop loads and stores each accumulator per row. Every lane
// performs exactly its column's scalar sequence — the product rounded
// before its add — so no bit depends on the pass a column lands in. The
// columns past the last whole vector take lanes of the pass's last vector
// under a mask, whose loads never touch memory and whose stores leave the
// rest alone. A lane is NaN exactly where its column's scalar chain is;
// which NaN, where two meet, depends on an operand order and is not part
// of the contract (pack.go), so the kernels finish every column.

#include "textflag.h"

// column numbers 0-31 (qwords), for the lane masks of a pass
DATA colIota<>+0(SB)/8, $0
DATA colIota<>+8(SB)/8, $1
DATA colIota<>+16(SB)/8, $2
DATA colIota<>+24(SB)/8, $3
DATA colIota<>+32(SB)/8, $4
DATA colIota<>+40(SB)/8, $5
DATA colIota<>+48(SB)/8, $6
DATA colIota<>+56(SB)/8, $7
DATA colIota<>+64(SB)/8, $8
DATA colIota<>+72(SB)/8, $9
DATA colIota<>+80(SB)/8, $10
DATA colIota<>+88(SB)/8, $11
DATA colIota<>+96(SB)/8, $12
DATA colIota<>+104(SB)/8, $13
DATA colIota<>+112(SB)/8, $14
DATA colIota<>+120(SB)/8, $15
DATA colIota<>+128(SB)/8, $16
DATA colIota<>+136(SB)/8, $17
DATA colIota<>+144(SB)/8, $18
DATA colIota<>+152(SB)/8, $19
DATA colIota<>+160(SB)/8, $20
DATA colIota<>+168(SB)/8, $21
DATA colIota<>+176(SB)/8, $22
DATA colIota<>+184(SB)/8, $23
DATA colIota<>+192(SB)/8, $24
DATA colIota<>+200(SB)/8, $25
DATA colIota<>+208(SB)/8, $26
DATA colIota<>+216(SB)/8, $27
DATA colIota<>+224(SB)/8, $28
DATA colIota<>+232(SB)/8, $29
DATA colIota<>+240(SB)/8, $30
DATA colIota<>+248(SB)/8, $31
GLOBL colIota<>(SB), RODATA|NOPTR, $256

// --- AVX-512F: eight columns per zmm, up to 32 per pass -----------------------

// ZSUM is one row of a sums-only pass on vector q (byte offset off) under
// opmask k: the merge-masked add leaves the lanes past the range at +0.
#define ZSUM(off, k, acc) \
	VADDPD off(R10), acc, k, acc

// ZDOT is one row of a sums-and-dots pass on vector q: a, then a·b rounded,
// each added to its own accumulator.
#define ZDOT(off, k, s, d) \
	VMOVUPD.Z off(R10), k, Z8; \
	VMULPD.Z  off(R14), Z8, k, Z9; \
	VADDPD    Z8, s, s; \
	VADDPD    Z9, d, d

// func colAcc64x8(rows, cols int64, a, b, sum, dot *float64)
//
// rows >= 1 rows of cols columns, contiguous in a (and b). b and dot are
// both nil or both not.
TEXT ·colAcc64x8(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), CX
	MOVQ cols+8(FP), BX
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ sum+32(FP), DI
	MOVQ dot+40(FP), R8
	MOVQ BX, R13
	SHLQ $3, R13     // row stride in bytes
	XORQ AX, AX      // first column of the pass

zpass:
	MOVQ BX, R9
	SUBQ AX, R9      // columns left
	JLE  zdone
	CMPQ R9, $32
	JLE  zmasks
	MOVQ $32, R9

zmasks:
	// K4…K7: the pass's live lanes of each vector, column < R9
	VPBROADCASTQ R9, Z24
	VPCMPQ       $6, colIota<>+0(SB), Z24, K4
	VPCMPQ       $6, colIota<>+64(SB), Z24, K5
	VPCMPQ       $6, colIota<>+128(SB), Z24, K6
	VPCMPQ       $6, colIota<>+192(SB), Z24, K7
	LEAQ         (DI)(AX*8), R11
	VMOVUPD.Z    (R11), K4, Z0
	VMOVUPD.Z    64(R11), K5, Z1
	VMOVUPD.Z    128(R11), K6, Z2
	VMOVUPD.Z    192(R11), K7, Z3
	LEAQ         (SI)(AX*8), R10
	MOVQ         CX, R12
	TESTQ        DX, DX
	JNZ          zdotpass
	CMPQ         R9, $8
	JLE          zsum1
	CMPQ         R9, $16
	JLE          zsum2
	CMPQ         R9, $24
	JLE          zsum3

zsum4:
	ZSUM(0, K4, Z0)
	ZSUM(64, K5, Z1)
	ZSUM(128, K6, Z2)
	ZSUM(192, K7, Z3)
	ADDQ R13, R10
	DECQ R12
	JNZ  zsum4
	JMP  zstore

zsum3:
	ZSUM(0, K4, Z0)
	ZSUM(64, K5, Z1)
	ZSUM(128, K6, Z2)
	ADDQ R13, R10
	DECQ R12
	JNZ  zsum3
	JMP  zstore

zsum2:
	ZSUM(0, K4, Z0)
	ZSUM(64, K5, Z1)
	ADDQ R13, R10
	DECQ R12
	JNZ  zsum2
	JMP  zstore

zsum1:
	ZSUM(0, K4, Z0)
	ADDQ R13, R10
	DECQ R12
	JNZ  zsum1
	JMP  zstore

zdotpass:
	LEAQ      (R8)(AX*8), R15
	VMOVUPD.Z (R15), K4, Z4
	VMOVUPD.Z 64(R15), K5, Z5
	VMOVUPD.Z 128(R15), K6, Z6
	VMOVUPD.Z 192(R15), K7, Z7
	LEAQ      (DX)(AX*8), R14
	CMPQ      R9, $8
	JLE       zdot1
	CMPQ      R9, $16
	JLE       zdot2
	CMPQ      R9, $24
	JLE       zdot3

zdot4:
	ZDOT(0, K4, Z0, Z4)
	ZDOT(64, K5, Z1, Z5)
	ZDOT(128, K6, Z2, Z6)
	ZDOT(192, K7, Z3, Z7)
	ADDQ R13, R10
	ADDQ R13, R14
	DECQ R12
	JNZ  zdot4
	JMP  zdotstore

zdot3:
	ZDOT(0, K4, Z0, Z4)
	ZDOT(64, K5, Z1, Z5)
	ZDOT(128, K6, Z2, Z6)
	ADDQ R13, R10
	ADDQ R13, R14
	DECQ R12
	JNZ  zdot3
	JMP  zdotstore

zdot2:
	ZDOT(0, K4, Z0, Z4)
	ZDOT(64, K5, Z1, Z5)
	ADDQ R13, R10
	ADDQ R13, R14
	DECQ R12
	JNZ  zdot2
	JMP  zdotstore

zdot1:
	ZDOT(0, K4, Z0, Z4)
	ADDQ R13, R10
	ADDQ R13, R14
	DECQ R12
	JNZ  zdot1

zdotstore:
	VMOVUPD Z4, K4, (R15)
	VMOVUPD Z5, K5, 64(R15)
	VMOVUPD Z6, K6, 128(R15)
	VMOVUPD Z7, K7, 192(R15)

zstore:
	VMOVUPD Z0, K4, (R11)
	VMOVUPD Z1, K5, 64(R11)
	VMOVUPD Z2, K6, 128(R11)
	VMOVUPD Z3, K7, 192(R11)
	ADDQ    R9, AX
	JMP     zpass

zdone:
	VZEROUPPER
	RET

// --- AVX2: four columns per ymm, up to 16 per pass ----------------------------

// YSUM and YDOT are ZSUM and ZDOT on ymm, the live lanes of vector q in
// mask register m (all ones, or the columns a partial vector covers).
#define YSUM(off, m, acc) \
	VMASKMOVPD off(R10), m, Y8; \
	VADDPD     Y8, acc, acc

#define YDOT(off, m, s, d) \
	VMASKMOVPD off(R10), m, Y8; \
	VMASKMOVPD off(R14), m, Y9; \
	VMULPD     Y9, Y8, Y9; \
	VADDPD     Y8, s, s; \
	VADDPD     Y9, d, d

// func colAcc64(rows, cols int64, a, b, sum, dot *float64)
//
// colAcc64x8 on the avx2 rung.
TEXT ·colAcc64(SB), NOSPLIT, $0-48
	MOVQ rows+0(FP), CX
	MOVQ cols+8(FP), BX
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ sum+32(FP), DI
	MOVQ dot+40(FP), R8
	MOVQ BX, R13
	SHLQ $3, R13
	XORQ AX, AX

ypass:
	MOVQ BX, R9
	SUBQ AX, R9
	JLE  ydone
	CMPQ R9, $16
	JLE  ymasks
	MOVQ $16, R9

ymasks:
	// Y12…Y15: column < R9, per vector
	VMOVQ        R9, X15
	VPBROADCASTQ X15, Y15
	VPCMPGTQ     colIota<>+0(SB), Y15, Y12
	VPCMPGTQ     colIota<>+32(SB), Y15, Y13
	VPCMPGTQ     colIota<>+64(SB), Y15, Y14
	VPCMPGTQ     colIota<>+96(SB), Y15, Y15
	LEAQ         (DI)(AX*8), R11
	VMASKMOVPD   (R11), Y12, Y0
	VMASKMOVPD   32(R11), Y13, Y1
	VMASKMOVPD   64(R11), Y14, Y2
	VMASKMOVPD   96(R11), Y15, Y3
	LEAQ         (SI)(AX*8), R10
	MOVQ         CX, R12
	TESTQ        DX, DX
	JNZ          ydotpass
	CMPQ         R9, $4
	JLE          ysum1
	CMPQ         R9, $8
	JLE          ysum2
	CMPQ         R9, $12
	JLE          ysum3

ysum4:
	YSUM(0, Y12, Y0)
	YSUM(32, Y13, Y1)
	YSUM(64, Y14, Y2)
	YSUM(96, Y15, Y3)
	ADDQ R13, R10
	DECQ R12
	JNZ  ysum4
	JMP  ystore

ysum3:
	YSUM(0, Y12, Y0)
	YSUM(32, Y13, Y1)
	YSUM(64, Y14, Y2)
	ADDQ R13, R10
	DECQ R12
	JNZ  ysum3
	JMP  ystore

ysum2:
	YSUM(0, Y12, Y0)
	YSUM(32, Y13, Y1)
	ADDQ R13, R10
	DECQ R12
	JNZ  ysum2
	JMP  ystore

ysum1:
	YSUM(0, Y12, Y0)
	ADDQ R13, R10
	DECQ R12
	JNZ  ysum1
	JMP  ystore

ydotpass:
	LEAQ       (R8)(AX*8), R15
	VMASKMOVPD (R15), Y12, Y4
	VMASKMOVPD 32(R15), Y13, Y5
	VMASKMOVPD 64(R15), Y14, Y6
	VMASKMOVPD 96(R15), Y15, Y7
	LEAQ       (DX)(AX*8), R14
	CMPQ       R9, $4
	JLE        ydot1
	CMPQ       R9, $8
	JLE        ydot2
	CMPQ       R9, $12
	JLE        ydot3

ydot4:
	YDOT(0, Y12, Y0, Y4)
	YDOT(32, Y13, Y1, Y5)
	YDOT(64, Y14, Y2, Y6)
	YDOT(96, Y15, Y3, Y7)
	ADDQ R13, R10
	ADDQ R13, R14
	DECQ R12
	JNZ  ydot4
	JMP  ydotstore

ydot3:
	YDOT(0, Y12, Y0, Y4)
	YDOT(32, Y13, Y1, Y5)
	YDOT(64, Y14, Y2, Y6)
	ADDQ R13, R10
	ADDQ R13, R14
	DECQ R12
	JNZ  ydot3
	JMP  ydotstore

ydot2:
	YDOT(0, Y12, Y0, Y4)
	YDOT(32, Y13, Y1, Y5)
	ADDQ R13, R10
	ADDQ R13, R14
	DECQ R12
	JNZ  ydot2
	JMP  ydotstore

ydot1:
	YDOT(0, Y12, Y0, Y4)
	ADDQ R13, R10
	ADDQ R13, R14
	DECQ R12
	JNZ  ydot1

ydotstore:
	VMASKMOVPD Y4, Y12, (R15)
	VMASKMOVPD Y5, Y13, 32(R15)
	VMASKMOVPD Y6, Y14, 64(R15)
	VMASKMOVPD Y7, Y15, 96(R15)

ystore:
	VMASKMOVPD Y0, Y12, (R11)
	VMASKMOVPD Y1, Y13, 32(R11)
	VMASKMOVPD Y2, Y14, 64(R11)
	VMASKMOVPD Y3, Y15, 96(R11)
	ADDQ       R9, AX
	JMP        ypass

ydone:
	VZEROUPPER
	RET

// --- SpanAcc (span.go), both element types ---------------------------------
//
//
//	dst[j] += s_k · src[r_k][j]      k = 0 … n−1, ascending
//
// the per-row accumulation of a CSR span — a receiver's incoming edges, a
// sender's outgoing ones, an owner's halo copies — with r_k = idx[k] (idx
// not nil) or k, rows stride elements apart, and s_k = scale[k] (rounded to
// float32 in the float32 kernels) or no multiply at all (scale nil). As above
// the lanes hold COLUMNS: a pass loads up to four vectors
// of dst once, runs the whole span into them and stores them once, each
// lane performing its column's scalar sequence, the product rounded before
// its add. The columns past the last whole vector take masked lanes.
//
// A kernel returns the number of leading columns it finished: cols, or 0
// when an index is not below rows, which its first pass meets before it
// stores anything.


// column numbers 0-63 (dwords), for the float32 lane masks
DATA spanIota32<>+0(SB)/4, $0
DATA spanIota32<>+4(SB)/4, $1
DATA spanIota32<>+8(SB)/4, $2
DATA spanIota32<>+12(SB)/4, $3
DATA spanIota32<>+16(SB)/4, $4
DATA spanIota32<>+20(SB)/4, $5
DATA spanIota32<>+24(SB)/4, $6
DATA spanIota32<>+28(SB)/4, $7
DATA spanIota32<>+32(SB)/4, $8
DATA spanIota32<>+36(SB)/4, $9
DATA spanIota32<>+40(SB)/4, $10
DATA spanIota32<>+44(SB)/4, $11
DATA spanIota32<>+48(SB)/4, $12
DATA spanIota32<>+52(SB)/4, $13
DATA spanIota32<>+56(SB)/4, $14
DATA spanIota32<>+60(SB)/4, $15
DATA spanIota32<>+64(SB)/4, $16
DATA spanIota32<>+68(SB)/4, $17
DATA spanIota32<>+72(SB)/4, $18
DATA spanIota32<>+76(SB)/4, $19
DATA spanIota32<>+80(SB)/4, $20
DATA spanIota32<>+84(SB)/4, $21
DATA spanIota32<>+88(SB)/4, $22
DATA spanIota32<>+92(SB)/4, $23
DATA spanIota32<>+96(SB)/4, $24
DATA spanIota32<>+100(SB)/4, $25
DATA spanIota32<>+104(SB)/4, $26
DATA spanIota32<>+108(SB)/4, $27
DATA spanIota32<>+112(SB)/4, $28
DATA spanIota32<>+116(SB)/4, $29
DATA spanIota32<>+120(SB)/4, $30
DATA spanIota32<>+124(SB)/4, $31
DATA spanIota32<>+128(SB)/4, $32
DATA spanIota32<>+132(SB)/4, $33
DATA spanIota32<>+136(SB)/4, $34
DATA spanIota32<>+140(SB)/4, $35
DATA spanIota32<>+144(SB)/4, $36
DATA spanIota32<>+148(SB)/4, $37
DATA spanIota32<>+152(SB)/4, $38
DATA spanIota32<>+156(SB)/4, $39
DATA spanIota32<>+160(SB)/4, $40
DATA spanIota32<>+164(SB)/4, $41
DATA spanIota32<>+168(SB)/4, $42
DATA spanIota32<>+172(SB)/4, $43
DATA spanIota32<>+176(SB)/4, $44
DATA spanIota32<>+180(SB)/4, $45
DATA spanIota32<>+184(SB)/4, $46
DATA spanIota32<>+188(SB)/4, $47
DATA spanIota32<>+192(SB)/4, $48
DATA spanIota32<>+196(SB)/4, $49
DATA spanIota32<>+200(SB)/4, $50
DATA spanIota32<>+204(SB)/4, $51
DATA spanIota32<>+208(SB)/4, $52
DATA spanIota32<>+212(SB)/4, $53
DATA spanIota32<>+216(SB)/4, $54
DATA spanIota32<>+220(SB)/4, $55
DATA spanIota32<>+224(SB)/4, $56
DATA spanIota32<>+228(SB)/4, $57
DATA spanIota32<>+232(SB)/4, $58
DATA spanIota32<>+236(SB)/4, $59
DATA spanIota32<>+240(SB)/4, $60
DATA spanIota32<>+244(SB)/4, $61
DATA spanIota32<>+248(SB)/4, $62
DATA spanIota32<>+252(SB)/4, $63
GLOBL spanIota32<>(SB), RODATA|NOPTR, $256


// The kernels share one register plan:
//
//	CX n, BX cols, R13 stride in bytes, DX rows, SI src, R8 idx, R9 scale,
//	DI dst, AX the pass's first column, R11 its width, R14 its dst block,
//	R15 its src column, R12 k, R10 the term's row address.
//
// SPANARGS loads the arguments; es is the element size's log2.
#define SPANARGS(es) \
	MOVQ n+0(FP), CX; \
	MOVQ cols+8(FP), BX; \
	MOVQ stride+16(FP), R13; \
	SHLQ $es, R13; \
	MOVQ rows+24(FP), DX; \
	MOVQ src+32(FP), SI; \
	MOVQ idx+40(FP), R8; \
	MOVQ scale+48(FP), R9; \
	MOVQ dst+56(FP), DI; \
	XORQ AX, AX

// SPANROW sets R10 to the address of term R12's row in the pass's
// columns, jumping to bad where an index is not below rows. nidx is the
// label of the contiguous case.
#define SPANROW(nidx, bad) \
	MOVQ  R12, R10; \
	TESTQ R8, R8; \
	JZ    nidx; \
	MOVQ  (R8)(R12*8), R10; \
	CMPQ  R10, DX; \
	JAE   bad

// --- AVX-512F ------------------------------------------------------------------

// ZMULn: acc_q += s·src_q (Z31 = s) for the pass's first n vectors, each
// under its lane mask; ZADDn the same without the multiply. The masked
// loads never touch memory outside the live lanes.
#define ZMUL64(off, k, acc) \
	VMULPD.Z off(R10), Z31, k, Z8; \
	VADDPD   Z8, acc, acc

#define ZADD64(off, k, acc) \
	VADDPD off(R10), acc, k, acc

#define ZMUL32(off, k, acc) \
	VMULPS.Z off(R10), Z31, k, Z8; \
	VADDPS   Z8, acc, acc

#define ZADD32(off, k, acc) \
	VADDPS off(R10), acc, k, acc

// func spanAcc64x8(n, cols, stride, rows int64, src *float64, idx *int, scale, dst *float64) (done int64)
//
// n >= 1 terms, cols >= 1, up to 32 columns (four zmm) per pass.
TEXT ·spanAcc64x8(SB), NOSPLIT, $0-72
	SPANARGS(3)

d8pass:
	MOVQ BX, R11
	SUBQ AX, R11
	JLE  d8done
	CMPQ R11, $32
	JLE  d8masks
	MOVQ $32, R11

d8masks:
	VPBROADCASTQ R11, Z24
	VPCMPQ       $6, colIota<>+0(SB), Z24, K4
	VPCMPQ       $6, colIota<>+64(SB), Z24, K5
	VPCMPQ       $6, colIota<>+128(SB), Z24, K6
	VPCMPQ       $6, colIota<>+192(SB), Z24, K7
	LEAQ         (DI)(AX*8), R14
	VMOVUPD.Z    (R14), K4, Z0
	VMOVUPD.Z    64(R14), K5, Z1
	VMOVUPD.Z    128(R14), K6, Z2
	VMOVUPD.Z    192(R14), K7, Z3
	LEAQ         (SI)(AX*8), R15
	XORQ         R12, R12
	CMPQ         R11, $8
	JLE          d8v1
	CMPQ         R11, $16
	JLE          d8v2
	CMPQ         R11, $24
	JLE          d8v3

d8v4:
	SPANROW(d8v4row, d8done)
d8v4row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           d8v4add
	VBROADCASTSD (R9)(R12*8), Z31
	ZMUL64(0, K4, Z0)
	ZMUL64(64, K5, Z1)
	ZMUL64(128, K6, Z2)
	ZMUL64(192, K7, Z3)
	JMP          d8v4next
d8v4add:
	ZADD64(0, K4, Z0)
	ZADD64(64, K5, Z1)
	ZADD64(128, K6, Z2)
	ZADD64(192, K7, Z3)
d8v4next:
	INCQ R12
	CMPQ R12, CX
	JLT  d8v4
	JMP  d8store

d8v3:
	SPANROW(d8v3row, d8done)
d8v3row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           d8v3add
	VBROADCASTSD (R9)(R12*8), Z31
	ZMUL64(0, K4, Z0)
	ZMUL64(64, K5, Z1)
	ZMUL64(128, K6, Z2)
	JMP          d8v3next
d8v3add:
	ZADD64(0, K4, Z0)
	ZADD64(64, K5, Z1)
	ZADD64(128, K6, Z2)
d8v3next:
	INCQ R12
	CMPQ R12, CX
	JLT  d8v3
	JMP  d8store

d8v2:
	SPANROW(d8v2row, d8done)
d8v2row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           d8v2add
	VBROADCASTSD (R9)(R12*8), Z31
	ZMUL64(0, K4, Z0)
	ZMUL64(64, K5, Z1)
	JMP          d8v2next
d8v2add:
	ZADD64(0, K4, Z0)
	ZADD64(64, K5, Z1)
d8v2next:
	INCQ R12
	CMPQ R12, CX
	JLT  d8v2
	JMP  d8store

d8v1:
	SPANROW(d8v1row, d8done)
d8v1row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           d8v1add
	VBROADCASTSD (R9)(R12*8), Z31
	ZMUL64(0, K4, Z0)
	JMP          d8v1next
d8v1add:
	ZADD64(0, K4, Z0)
d8v1next:
	INCQ R12
	CMPQ R12, CX
	JLT  d8v1

d8store:
	VMOVUPD Z0, K4, (R14)
	VMOVUPD Z1, K5, 64(R14)
	VMOVUPD Z2, K6, 128(R14)
	VMOVUPD Z3, K7, 192(R14)
	ADDQ    R11, AX
	JMP     d8pass

d8done:
	VZEROUPPER
	MOVQ AX, done+64(FP)
	RET

// func spanAcc32x16(n, cols, stride, rows int64, src *float32, idx *int, scale *float64, dst *float32) (done int64)
//
// spanAcc64x8 for float32: sixteen columns per zmm, up to 64 per pass,
// each scale rounded to float32 (VCVTSD2SS, as float32(s) rounds).
TEXT ·spanAcc32x16(SB), NOSPLIT, $0-72
	SPANARGS(2)

s16pass:
	MOVQ BX, R11
	SUBQ AX, R11
	JLE  s16done
	CMPQ R11, $64
	JLE  s16masks
	MOVQ $64, R11

s16masks:
	VPBROADCASTD R11, Z24
	VPCMPD       $6, spanIota32<>+0(SB), Z24, K4
	VPCMPD       $6, spanIota32<>+64(SB), Z24, K5
	VPCMPD       $6, spanIota32<>+128(SB), Z24, K6
	VPCMPD       $6, spanIota32<>+192(SB), Z24, K7
	LEAQ         (DI)(AX*4), R14
	VMOVUPS.Z    (R14), K4, Z0
	VMOVUPS.Z    64(R14), K5, Z1
	VMOVUPS.Z    128(R14), K6, Z2
	VMOVUPS.Z    192(R14), K7, Z3
	LEAQ         (SI)(AX*4), R15
	XORQ         R12, R12
	CMPQ         R11, $16
	JLE          s16v1
	CMPQ         R11, $32
	JLE          s16v2
	CMPQ         R11, $48
	JLE          s16v3

s16v4:
	SPANROW(s16v4row, s16done)
s16v4row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           s16v4add
	VCVTSD2SS    (R9)(R12*8), X31, X31
	VBROADCASTSS X31, Z31
	ZMUL32(0, K4, Z0)
	ZMUL32(64, K5, Z1)
	ZMUL32(128, K6, Z2)
	ZMUL32(192, K7, Z3)
	JMP          s16v4next
s16v4add:
	ZADD32(0, K4, Z0)
	ZADD32(64, K5, Z1)
	ZADD32(128, K6, Z2)
	ZADD32(192, K7, Z3)
s16v4next:
	INCQ R12
	CMPQ R12, CX
	JLT  s16v4
	JMP  s16store

s16v3:
	SPANROW(s16v3row, s16done)
s16v3row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           s16v3add
	VCVTSD2SS    (R9)(R12*8), X31, X31
	VBROADCASTSS X31, Z31
	ZMUL32(0, K4, Z0)
	ZMUL32(64, K5, Z1)
	ZMUL32(128, K6, Z2)
	JMP          s16v3next
s16v3add:
	ZADD32(0, K4, Z0)
	ZADD32(64, K5, Z1)
	ZADD32(128, K6, Z2)
s16v3next:
	INCQ R12
	CMPQ R12, CX
	JLT  s16v3
	JMP  s16store

s16v2:
	SPANROW(s16v2row, s16done)
s16v2row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           s16v2add
	VCVTSD2SS    (R9)(R12*8), X31, X31
	VBROADCASTSS X31, Z31
	ZMUL32(0, K4, Z0)
	ZMUL32(64, K5, Z1)
	JMP          s16v2next
s16v2add:
	ZADD32(0, K4, Z0)
	ZADD32(64, K5, Z1)
s16v2next:
	INCQ R12
	CMPQ R12, CX
	JLT  s16v2
	JMP  s16store

s16v1:
	SPANROW(s16v1row, s16done)
s16v1row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           s16v1add
	VCVTSD2SS    (R9)(R12*8), X31, X31
	VBROADCASTSS X31, Z31
	ZMUL32(0, K4, Z0)
	JMP          s16v1next
s16v1add:
	ZADD32(0, K4, Z0)
s16v1next:
	INCQ R12
	CMPQ R12, CX
	JLT  s16v1

s16store:
	VMOVUPS Z0, K4, (R14)
	VMOVUPS Z1, K5, 64(R14)
	VMOVUPS Z2, K6, 128(R14)
	VMOVUPS Z3, K7, 192(R14)
	ADDQ    R11, AX
	JMP     s16pass

s16done:
	VZEROUPPER
	MOVQ AX, done+64(FP)
	RET

// --- AVX2 ------------------------------------------------------------------------

// YMULn and YADDn are ZMULn and ZADDn on ymm, the live lanes of vector q
// in mask register m; Y11 = s.
#define YMUL64(off, m, acc) \
	VMASKMOVPD off(R10), m, Y8; \
	VMULPD     Y8, Y11, Y8; \
	VADDPD     Y8, acc, acc

#define YADD64(off, m, acc) \
	VMASKMOVPD off(R10), m, Y8; \
	VADDPD     Y8, acc, acc

#define YMUL32(off, m, acc) \
	VMASKMOVPS off(R10), m, Y8; \
	VMULPS     Y8, Y11, Y8; \
	VADDPS     Y8, acc, acc

#define YADD32(off, m, acc) \
	VMASKMOVPS off(R10), m, Y8; \
	VADDPS     Y8, acc, acc

// func spanAcc64(n, cols, stride, rows int64, src *float64, idx *int, scale, dst *float64) (done int64)
//
// spanAcc64x8 on the avx2 rung: four columns per ymm, up to 16 per pass.
TEXT ·spanAcc64(SB), NOSPLIT, $0-72
	SPANARGS(3)

d4pass:
	MOVQ BX, R11
	SUBQ AX, R11
	JLE  d4done
	CMPQ R11, $16
	JLE  d4masks
	MOVQ $16, R11

d4masks:
	VMOVQ        R11, X15
	VPBROADCASTQ X15, Y15
	VPCMPGTQ     colIota<>+0(SB), Y15, Y12
	VPCMPGTQ     colIota<>+32(SB), Y15, Y13
	VPCMPGTQ     colIota<>+64(SB), Y15, Y14
	VPCMPGTQ     colIota<>+96(SB), Y15, Y15
	LEAQ         (DI)(AX*8), R14
	VMASKMOVPD   (R14), Y12, Y0
	VMASKMOVPD   32(R14), Y13, Y1
	VMASKMOVPD   64(R14), Y14, Y2
	VMASKMOVPD   96(R14), Y15, Y3
	LEAQ         (SI)(AX*8), R15
	XORQ         R12, R12
	CMPQ         R11, $4
	JLE          d4v1
	CMPQ         R11, $8
	JLE          d4v2
	CMPQ         R11, $12
	JLE          d4v3

d4v4:
	SPANROW(d4v4row, d4done)
d4v4row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           d4v4add
	VBROADCASTSD (R9)(R12*8), Y11
	YMUL64(0, Y12, Y0)
	YMUL64(32, Y13, Y1)
	YMUL64(64, Y14, Y2)
	YMUL64(96, Y15, Y3)
	JMP          d4v4next
d4v4add:
	YADD64(0, Y12, Y0)
	YADD64(32, Y13, Y1)
	YADD64(64, Y14, Y2)
	YADD64(96, Y15, Y3)
d4v4next:
	INCQ R12
	CMPQ R12, CX
	JLT  d4v4
	JMP  d4store

d4v3:
	SPANROW(d4v3row, d4done)
d4v3row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           d4v3add
	VBROADCASTSD (R9)(R12*8), Y11
	YMUL64(0, Y12, Y0)
	YMUL64(32, Y13, Y1)
	YMUL64(64, Y14, Y2)
	JMP          d4v3next
d4v3add:
	YADD64(0, Y12, Y0)
	YADD64(32, Y13, Y1)
	YADD64(64, Y14, Y2)
d4v3next:
	INCQ R12
	CMPQ R12, CX
	JLT  d4v3
	JMP  d4store

d4v2:
	SPANROW(d4v2row, d4done)
d4v2row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           d4v2add
	VBROADCASTSD (R9)(R12*8), Y11
	YMUL64(0, Y12, Y0)
	YMUL64(32, Y13, Y1)
	JMP          d4v2next
d4v2add:
	YADD64(0, Y12, Y0)
	YADD64(32, Y13, Y1)
d4v2next:
	INCQ R12
	CMPQ R12, CX
	JLT  d4v2
	JMP  d4store

d4v1:
	SPANROW(d4v1row, d4done)
d4v1row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           d4v1add
	VBROADCASTSD (R9)(R12*8), Y11
	YMUL64(0, Y12, Y0)
	JMP          d4v1next
d4v1add:
	YADD64(0, Y12, Y0)
d4v1next:
	INCQ R12
	CMPQ R12, CX
	JLT  d4v1

d4store:
	VMASKMOVPD Y0, Y12, (R14)
	VMASKMOVPD Y1, Y13, 32(R14)
	VMASKMOVPD Y2, Y14, 64(R14)
	VMASKMOVPD Y3, Y15, 96(R14)
	ADDQ       R11, AX
	JMP        d4pass

d4done:
	VZEROUPPER
	MOVQ AX, done+64(FP)
	RET

// func spanAcc32(n, cols, stride, rows int64, src *float32, idx *int, scale *float64, dst *float32) (done int64)
//
// spanAcc32x16 on the avx2 rung: eight columns per ymm, up to 32 per pass.
TEXT ·spanAcc32(SB), NOSPLIT, $0-72
	SPANARGS(2)

s8pass:
	MOVQ BX, R11
	SUBQ AX, R11
	JLE  s8done
	CMPQ R11, $32
	JLE  s8masks
	MOVQ $32, R11

s8masks:
	VMOVQ        R11, X15
	VPBROADCASTD X15, Y15
	VPCMPGTD     spanIota32<>+0(SB), Y15, Y12
	VPCMPGTD     spanIota32<>+32(SB), Y15, Y13
	VPCMPGTD     spanIota32<>+64(SB), Y15, Y14
	VPCMPGTD     spanIota32<>+96(SB), Y15, Y15
	LEAQ         (DI)(AX*4), R14
	VMASKMOVPS   (R14), Y12, Y0
	VMASKMOVPS   32(R14), Y13, Y1
	VMASKMOVPS   64(R14), Y14, Y2
	VMASKMOVPS   96(R14), Y15, Y3
	LEAQ         (SI)(AX*4), R15
	XORQ         R12, R12
	CMPQ         R11, $8
	JLE          s8v1
	CMPQ         R11, $16
	JLE          s8v2
	CMPQ         R11, $24
	JLE          s8v3

s8v4:
	SPANROW(s8v4row, s8done)
s8v4row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           s8v4add
	VCVTSD2SS    (R9)(R12*8), X11, X11
	VBROADCASTSS X11, Y11
	YMUL32(0, Y12, Y0)
	YMUL32(32, Y13, Y1)
	YMUL32(64, Y14, Y2)
	YMUL32(96, Y15, Y3)
	JMP          s8v4next
s8v4add:
	YADD32(0, Y12, Y0)
	YADD32(32, Y13, Y1)
	YADD32(64, Y14, Y2)
	YADD32(96, Y15, Y3)
s8v4next:
	INCQ R12
	CMPQ R12, CX
	JLT  s8v4
	JMP  s8store

s8v3:
	SPANROW(s8v3row, s8done)
s8v3row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           s8v3add
	VCVTSD2SS    (R9)(R12*8), X11, X11
	VBROADCASTSS X11, Y11
	YMUL32(0, Y12, Y0)
	YMUL32(32, Y13, Y1)
	YMUL32(64, Y14, Y2)
	JMP          s8v3next
s8v3add:
	YADD32(0, Y12, Y0)
	YADD32(32, Y13, Y1)
	YADD32(64, Y14, Y2)
s8v3next:
	INCQ R12
	CMPQ R12, CX
	JLT  s8v3
	JMP  s8store

s8v2:
	SPANROW(s8v2row, s8done)
s8v2row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           s8v2add
	VCVTSD2SS    (R9)(R12*8), X11, X11
	VBROADCASTSS X11, Y11
	YMUL32(0, Y12, Y0)
	YMUL32(32, Y13, Y1)
	JMP          s8v2next
s8v2add:
	YADD32(0, Y12, Y0)
	YADD32(32, Y13, Y1)
s8v2next:
	INCQ R12
	CMPQ R12, CX
	JLT  s8v2
	JMP  s8store

s8v1:
	SPANROW(s8v1row, s8done)
s8v1row:
	IMULQ        R13, R10
	ADDQ         R15, R10
	TESTQ        R9, R9
	JZ           s8v1add
	VCVTSD2SS    (R9)(R12*8), X11, X11
	VBROADCASTSS X11, Y11
	YMUL32(0, Y12, Y0)
	JMP          s8v1next
s8v1add:
	YADD32(0, Y12, Y0)
s8v1next:
	INCQ R12
	CMPQ R12, CX
	JLT  s8v1

s8store:
	VMASKMOVPS Y0, Y12, (R14)
	VMASKMOVPS Y1, Y13, 32(R14)
	VMASKMOVPS Y2, Y14, 64(R14)
	VMASKMOVPS Y3, Y15, 96(R14)
	ADDQ       R11, AX
	JMP        s8pass

s8done:
	VZEROUPPER
	MOVQ AX, done+64(FP)
	RET
