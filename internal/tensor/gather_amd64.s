// The kernels of GatherAddEdgeRows (gather.go).

#include "textflag.h"

// ymm masks for the avx2 tail: 32−4t bytes in, the first t dwords are set.
DATA gatherMask<>+0(SB)/8, $-1
DATA gatherMask<>+8(SB)/8, $-1
DATA gatherMask<>+16(SB)/8, $-1
DATA gatherMask<>+24(SB)/8, $-1
DATA gatherMask<>+32(SB)/8, $0
DATA gatherMask<>+40(SB)/8, $0
DATA gatherMask<>+48(SB)/8, $0
DATA gatherMask<>+56(SB)/8, $0
GLOBL gatherMask<>(SB), RODATA|NOPTR, $64

// The gather-adds of GatherAddEdgeRows: per edge, the row of dst (rowBytes
// bytes) becomes dst + (p[recv] + q[send]), each element through two
// rounded adds in its own lane — whole vectors, then the rowBytes mod
// vector-width tail through masked lanes, which neither load nor store
// past the row. Addition commutes bit for bit (NaN payloads aside, which
// no contract of the package fixes), so the operand order of VADDPD/VADDPS
// does not show. An edge whose recv or send is not below nx stops the
// kernel before it touches that edge's row; it returns the number of
// edges done.

// EDGEPQ points R13 at p[recv] and R14 at q[send] for the edge at (SI), or
// jumps to stop if either index is out of range (unsigned: a negative one
// is too).
#define EDGEPQ(stop) \
	MOVQ  8(SI), R13; \
	MOVQ  (SI), R14; \
	CMPQ  R13, R8; \
	JAE   stop; \
	CMPQ  R14, R8; \
	JAE   stop; \
	IMULQ BX, R13; \
	IMULQ BX, R14; \
	ADDQ  R9, R13; \
	ADDQ  R10, R14

// ZMASK sets K1 to the lanes of the rowBytes mod 32 tail, shift being
// log2 of the element size. The avx512 kernels take a 32-byte remainder
// in one unmasked ymm step first: a masked store stalls a load of the next
// row that overlaps its 64 bytes, so masking 32 live bytes (a float32
// h = 8 row) costs 9 ns an edge where the ymm step costs 2.
#define ZMASK(shift) \
	MOVQ  BX, CX; \
	ANDQ  $31, CX; \
	SHRQ  $shift, CX; \
	MOVQ  $1, DX; \
	SHLQ  CX, DX; \
	DECQ  DX; \
	KMOVW DX, K1

// YMASK sets R12 to the bytes in whole ymm and Y1 to the dwords of the
// rowBytes mod 32 tail.
#define YMASK \
	MOVQ    BX, R12; \
	ANDQ    $-32, R12; \
	MOVQ    BX, CX; \
	ANDQ    $31, CX; \
	LEAQ    gatherMask<>+32(SB), DX; \
	SUBQ    CX, DX; \
	VMOVDQU (DX), Y1

// func edgeRowsAdd64x8(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64)
TEXT ·edgeRowsAdd64x8(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), AX
	MOVQ rowBytes+8(FP), BX
	MOVQ nx+16(FP), R8
	MOVQ edges+24(FP), SI
	MOVQ p+32(FP), R9
	MOVQ q+40(FP), R10
	MOVQ dst+48(FP), DI
	XORQ R11, R11 // edges done
	MOVQ BX, R12
	ANDQ $-64, R12 // bytes in whole zmm
	ZMASK(3)

d8edge:
	EDGEPQ(d8done)
	XORQ CX, CX
	CMPQ CX, R12
	JGE  d8tail

d8vec:
	VMOVUPD (R13)(CX*1), Z0
	VADDPD  (R14)(CX*1), Z0, Z0
	VADDPD  (DI)(CX*1), Z0, Z0
	VMOVUPD Z0, (DI)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R12
	JLT     d8vec

d8tail:
	TESTQ   $32, BX
	JZ      d8masked
	VMOVUPD (R13)(CX*1), Y0
	VADDPD  (R14)(CX*1), Y0, Y0
	VADDPD  (DI)(CX*1), Y0, Y0
	VMOVUPD Y0, (DI)(CX*1)
	ADDQ    $32, CX

d8masked:
	KORTESTW  K1, K1
	JZ        d8next
	VMOVUPD.Z (R13)(CX*1), K1, Z0
	VADDPD.Z  (R14)(CX*1), Z0, K1, Z0
	VADDPD.Z  (DI)(CX*1), Z0, K1, Z0
	VMOVUPD   Z0, K1, (DI)(CX*1)

d8next:
	ADDQ BX, DI
	ADDQ $16, SI
	INCQ R11
	CMPQ R11, AX
	JLT  d8edge

d8done:
	VZEROUPPER
	MOVQ R11, done+56(FP)
	RET

// func edgeRowsAdd32x16(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64)
TEXT ·edgeRowsAdd32x16(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), AX
	MOVQ rowBytes+8(FP), BX
	MOVQ nx+16(FP), R8
	MOVQ edges+24(FP), SI
	MOVQ p+32(FP), R9
	MOVQ q+40(FP), R10
	MOVQ dst+48(FP), DI
	XORQ R11, R11 // edges done
	MOVQ BX, R12
	ANDQ $-64, R12 // bytes in whole zmm
	ZMASK(2)

s16edge:
	EDGEPQ(s16done)
	XORQ CX, CX
	CMPQ CX, R12
	JGE  s16tail

s16vec:
	VMOVUPS (R13)(CX*1), Z0
	VADDPS  (R14)(CX*1), Z0, Z0
	VADDPS  (DI)(CX*1), Z0, Z0
	VMOVUPS Z0, (DI)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R12
	JLT     s16vec

s16tail:
	TESTQ   $32, BX
	JZ      s16masked
	VMOVUPS (R13)(CX*1), Y0
	VADDPS  (R14)(CX*1), Y0, Y0
	VADDPS  (DI)(CX*1), Y0, Y0
	VMOVUPS Y0, (DI)(CX*1)
	ADDQ    $32, CX

s16masked:
	KORTESTW  K1, K1
	JZ        s16next
	VMOVUPS.Z (R13)(CX*1), K1, Z0
	VADDPS.Z  (R14)(CX*1), Z0, K1, Z0
	VADDPS.Z  (DI)(CX*1), Z0, K1, Z0
	VMOVUPS   Z0, K1, (DI)(CX*1)

s16next:
	ADDQ BX, DI
	ADDQ $16, SI
	INCQ R11
	CMPQ R11, AX
	JLT  s16edge

s16done:
	VZEROUPPER
	MOVQ R11, done+56(FP)
	RET

// func edgeRowsAdd64(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64)
//
// rowBytes is a multiple of 8, so the dword tail mask sets both halves of
// every live qword.
TEXT ·edgeRowsAdd64(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), AX
	MOVQ rowBytes+8(FP), BX
	MOVQ nx+16(FP), R8
	MOVQ edges+24(FP), SI
	MOVQ p+32(FP), R9
	MOVQ q+40(FP), R10
	MOVQ dst+48(FP), DI
	XORQ R11, R11 // edges done
	YMASK

d4edge:
	EDGEPQ(d4done)
	XORQ CX, CX
	CMPQ CX, R12
	JGE  d4tail

d4vec:
	VMOVUPD (R13)(CX*1), Y0
	VADDPD  (R14)(CX*1), Y0, Y0
	VADDPD  (DI)(CX*1), Y0, Y0
	VMOVUPD Y0, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, R12
	JLT     d4vec

d4tail:
	TESTQ      $31, BX
	JZ         d4next
	VMASKMOVPD (R13)(CX*1), Y1, Y0
	VMASKMOVPD (R14)(CX*1), Y1, Y2
	VADDPD     Y2, Y0, Y0
	VMASKMOVPD (DI)(CX*1), Y1, Y2
	VADDPD     Y2, Y0, Y0
	VMASKMOVPD Y0, Y1, (DI)(CX*1)

d4next:
	ADDQ BX, DI
	ADDQ $16, SI
	INCQ R11
	CMPQ R11, AX
	JLT  d4edge

d4done:
	VZEROUPPER
	MOVQ R11, done+56(FP)
	RET

// func edgeRowsAdd32(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64)
TEXT ·edgeRowsAdd32(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), AX
	MOVQ rowBytes+8(FP), BX
	MOVQ nx+16(FP), R8
	MOVQ edges+24(FP), SI
	MOVQ p+32(FP), R9
	MOVQ q+40(FP), R10
	MOVQ dst+48(FP), DI
	XORQ R11, R11 // edges done
	YMASK

s8edge:
	EDGEPQ(s8done)
	XORQ CX, CX
	CMPQ CX, R12
	JGE  s8tail

s8vec:
	VMOVUPS (R13)(CX*1), Y0
	VADDPS  (R14)(CX*1), Y0, Y0
	VADDPS  (DI)(CX*1), Y0, Y0
	VMOVUPS Y0, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, R12
	JLT     s8vec

s8tail:
	TESTQ      $31, BX
	JZ         s8next
	VMASKMOVPS (R13)(CX*1), Y1, Y0
	VMASKMOVPS (R14)(CX*1), Y1, Y2
	VADDPS     Y2, Y0, Y0
	VMASKMOVPS (DI)(CX*1), Y1, Y2
	VADDPS     Y2, Y0, Y0
	VMASKMOVPS Y0, Y1, (DI)(CX*1)

s8next:
	ADDQ BX, DI
	ADDQ $16, SI
	INCQ R11
	CMPQ R11, AX
	JLT  s8edge

s8done:
	VZEROUPPER
	MOVQ R11, done+56(FP)
	RET
