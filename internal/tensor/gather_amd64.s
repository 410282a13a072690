// The edge stage's row gather (gather.go): per edge, three row segments
// x[recv] ‖ x[send] ‖ e[k] of rowBytes bytes each are copied into the next
// row of the panel. The kernels only move bytes — whole vectors, the
// rowBytes mod vector-width tail through masked lanes (rowBytes is a
// multiple of 4, the dword masks' grain) — so every bit arrives as it
// left. An edge whose recv or send is not below nx stops the kernel
// before it writes that edge's row; it returns the number of edges done.

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

// EDGEROWS points R13 at x[recv] and R14 at x[send] for the edge at (SI),
// or jumps to stop if either index is out of range (unsigned: a negative
// one is too).
#define EDGEROWS(stop) \
	MOVQ  8(SI), R13; \
	MOVQ  (SI), R14; \
	CMPQ  R13, R8; \
	JAE   stop; \
	CMPQ  R14, R8; \
	JAE   stop; \
	IMULQ BX, R13; \
	IMULQ BX, R14; \
	ADDQ  R9, R13; \
	ADDQ  R9, R14

// func edgeRowsCopyx16(n, rowBytes, nx int64, edges *[2]int, x, e, dst unsafe.Pointer) (done int64)
//
// The avx512 rung: rows of up to 64 bytes are one masked zmm move a
// segment, longer ones whole zmm and a masked tail.
TEXT ·edgeRowsCopyx16(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), AX
	MOVQ rowBytes+8(FP), BX
	MOVQ nx+16(FP), R8
	MOVQ edges+24(FP), SI
	MOVQ x+32(FP), R9
	MOVQ e+40(FP), R10
	MOVQ dst+48(FP), DI
	XORQ R11, R11 // edges done
	CMPQ BX, $64
	JGT  zlong

	// at most 64 bytes: one masked move per segment
	MOVQ  BX, CX
	SHRQ  $2, CX
	MOVQ  $1, DX
	SHLQ  CX, DX
	DECQ  DX
	KMOVW DX, K1 // the row's dwords

zshort:
	EDGEROWS(zdone)
	VMOVDQU32.Z (R13), K1, Z0
	VMOVDQU32.Z (R14), K1, Z1
	VMOVDQU32.Z (R10), K1, Z2
	VMOVDQU32   Z0, K1, (DI)
	VMOVDQU32   Z1, K1, (DI)(BX*1)
	VMOVDQU32   Z2, K1, (DI)(BX*2)
	ADDQ        BX, R10
	LEAQ        (DI)(BX*2), DI
	ADDQ        BX, DI
	ADDQ        $16, SI
	INCQ        R11
	CMPQ        R11, AX
	JLT         zshort
	JMP         zdone

zlong:
	MOVQ  BX, R12
	ANDQ  $-64, R12 // bytes in whole zmm, at least one
	MOVQ  BX, CX
	ANDQ  $63, CX
	SHRQ  $2, CX
	MOVQ  $1, DX
	SHLQ  CX, DX
	DECQ  DX
	KMOVW DX, K1 // the tail's dwords, perhaps none

zedge:
	EDGEROWS(zdone)
	MOVQ R10, R15
	MOVQ $3, DX // segments: x[recv], x[send], then e[k]

zseg:
	XORQ CX, CX

zseg64:
	VMOVDQU64 (R13)(CX*1), Z0
	VMOVDQU64 Z0, (DI)(CX*1)
	ADDQ      $64, CX
	CMPQ      CX, R12
	JLT       zseg64
	KORTESTW  K1, K1
	JZ        zsegnext
	VMOVDQU32.Z (R13)(CX*1), K1, Z0
	VMOVDQU32 Z0, K1, (DI)(CX*1)

zsegnext:
	ADDQ BX, DI
	MOVQ R14, R13
	MOVQ R15, R14
	DECQ DX
	JNZ  zseg
	ADDQ BX, R10
	ADDQ $16, SI
	INCQ R11
	CMPQ R11, AX
	JLT  zedge

zdone:
	VZEROUPPER
	MOVQ R11, done+56(FP)
	RET

// func edgeRowsCopy(n, rowBytes, nx int64, edges *[2]int, x, e, dst unsafe.Pointer) (done int64)
//
// The avx2 rung: whole ymm, then the tail through VPMASKMOVD.
TEXT ·edgeRowsCopy(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), AX
	MOVQ rowBytes+8(FP), BX
	MOVQ nx+16(FP), R8
	MOVQ edges+24(FP), SI
	MOVQ x+32(FP), R9
	MOVQ e+40(FP), R10
	MOVQ dst+48(FP), DI
	XORQ R11, R11 // edges done
	MOVQ BX, R12
	ANDQ $-32, R12 // bytes in whole ymm
	MOVQ BX, CX
	ANDQ $31, CX   // tail bytes
	LEAQ gatherMask<>+32(SB), DX
	SUBQ CX, DX
	VMOVDQU (DX), Y1 // the tail's dwords, perhaps none

aedge:
	EDGEROWS(adone)
	MOVQ R10, R15
	MOVQ $3, DX // segments: x[recv], x[send], then e[k]

aseg:
	XORQ CX, CX
	CMPQ CX, R12
	JGE  atail

aseg32:
	VMOVDQU (R13)(CX*1), Y0
	VMOVDQU Y0, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, R12
	JLT     aseg32

atail:
	TESTQ      $31, BX
	JZ         asegnext
	VPMASKMOVD (R13)(CX*1), Y1, Y0
	VPMASKMOVD Y0, Y1, (DI)(CX*1)

asegnext:
	ADDQ BX, DI
	MOVQ R14, R13
	MOVQ R15, R14
	DECQ DX
	JNZ  aseg
	ADDQ BX, R10
	ADDQ $16, SI
	INCQ R11
	CMPQ R11, AX
	JLT  aedge

adone:
	VZEROUPPER
	MOVQ R11, done+56(FP)
	RET

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
