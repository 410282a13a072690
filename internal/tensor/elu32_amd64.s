// AVX2 and AVX-512F kernels for the float32 elementwise tier: the ELU map
// (elu32.go) twice — eluBlock32 on ymm, eluBlock32x16 on zmm — and, at the
// end of the file, the add kernels behind the bias and residual adds
// (ops32.go), 8 and 16 lanes.
//
// Both ELU kernels evaluate one sequence per lane, the SIMD rungs'
// definition of the float32 ELU (elu32.go): w = max(v, expUnder),
// k = roundeven(w/ln2), r = w − k·ln2 by two fused negated multiply-adds
// over the hi/lo split, the polynomial by fused Horner steps,
// pm1 = fma(z, r², r), and 2^k·pm1 + (2^k − 1) as a rounded product and a
// rounded add; lanes with v > 0 or v NaN select v. The avx512 kernel scales
// by VSCALEFPS and the avx2 one multiplies by 2^k built in the exponent
// field: the clamp keeps k ≥ −126, where 2^k is a normal float32 and both
// are the one rounding of pm1·2^k, so the two rungs agree bit for bit.
// Each kernel takes any n ≥ 1 and finishes it: the elements past the last
// whole group go through masked lanes (VMASKMOVPS on avx2, an opmask on
// avx512) in the same sequence, so where a range starts or ends never
// shows in a bit.

#include "textflag.h"

// expUnder = -87.33654f
DATA eluUnder<>+0(SB)/8, $0xc2aeac4fc2aeac4f
DATA eluUnder<>+8(SB)/8, $0xc2aeac4fc2aeac4f
DATA eluUnder<>+16(SB)/8, $0xc2aeac4fc2aeac4f
DATA eluUnder<>+24(SB)/8, $0xc2aeac4fc2aeac4f
GLOBL eluUnder<>(SB), RODATA|NOPTR, $32

// 1/ln2
DATA eluInvLn2<>+0(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA eluInvLn2<>+8(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA eluInvLn2<>+16(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA eluInvLn2<>+24(SB)/8, $0x3fb8aa3b3fb8aa3b
GLOBL eluInvLn2<>(SB), RODATA|NOPTR, $32

// ln2 hi/lo split
DATA eluLn2Hi<>+0(SB)/8, $0x3f3180003f318000
DATA eluLn2Hi<>+8(SB)/8, $0x3f3180003f318000
DATA eluLn2Hi<>+16(SB)/8, $0x3f3180003f318000
DATA eluLn2Hi<>+24(SB)/8, $0x3f3180003f318000
GLOBL eluLn2Hi<>(SB), RODATA|NOPTR, $32

DATA eluLn2Lo<>+0(SB)/8, $0xb95e8083b95e8083
DATA eluLn2Lo<>+8(SB)/8, $0xb95e8083b95e8083
DATA eluLn2Lo<>+16(SB)/8, $0xb95e8083b95e8083
DATA eluLn2Lo<>+24(SB)/8, $0xb95e8083b95e8083
GLOBL eluLn2Lo<>(SB), RODATA|NOPTR, $32

// minimax polynomial coefficients, degree 5 down to 0
DATA eluC5<>+0(SB)/8, $0x3950696739506967
DATA eluC5<>+8(SB)/8, $0x3950696739506967
DATA eluC5<>+16(SB)/8, $0x3950696739506967
DATA eluC5<>+24(SB)/8, $0x3950696739506967
GLOBL eluC5<>(SB), RODATA|NOPTR, $32

DATA eluC4<>+0(SB)/8, $0x3ab743ce3ab743ce
DATA eluC4<>+8(SB)/8, $0x3ab743ce3ab743ce
DATA eluC4<>+16(SB)/8, $0x3ab743ce3ab743ce
DATA eluC4<>+24(SB)/8, $0x3ab743ce3ab743ce
GLOBL eluC4<>(SB), RODATA|NOPTR, $32

DATA eluC3<>+0(SB)/8, $0x3c0889083c088908
DATA eluC3<>+8(SB)/8, $0x3c0889083c088908
DATA eluC3<>+16(SB)/8, $0x3c0889083c088908
DATA eluC3<>+24(SB)/8, $0x3c0889083c088908
GLOBL eluC3<>(SB), RODATA|NOPTR, $32

DATA eluC2<>+0(SB)/8, $0x3d2aa9c13d2aa9c1
DATA eluC2<>+8(SB)/8, $0x3d2aa9c13d2aa9c1
DATA eluC2<>+16(SB)/8, $0x3d2aa9c13d2aa9c1
DATA eluC2<>+24(SB)/8, $0x3d2aa9c13d2aa9c1
GLOBL eluC2<>(SB), RODATA|NOPTR, $32

DATA eluC1<>+0(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA eluC1<>+8(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA eluC1<>+16(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA eluC1<>+24(SB)/8, $0x3e2aaaaa3e2aaaaa
GLOBL eluC1<>(SB), RODATA|NOPTR, $32

DATA eluC0<>+0(SB)/8, $0x3f0000003f000000
DATA eluC0<>+8(SB)/8, $0x3f0000003f000000
DATA eluC0<>+16(SB)/8, $0x3f0000003f000000
DATA eluC0<>+24(SB)/8, $0x3f0000003f000000
GLOBL eluC0<>(SB), RODATA|NOPTR, $32

DATA eluOne<>+0(SB)/8, $0x3f8000003f800000
DATA eluOne<>+8(SB)/8, $0x3f8000003f800000
DATA eluOne<>+16(SB)/8, $0x3f8000003f800000
DATA eluOne<>+24(SB)/8, $0x3f8000003f800000
GLOBL eluOne<>(SB), RODATA|NOPTR, $32

DATA eluI127<>+0(SB)/8, $0x0000007f0000007f
DATA eluI127<>+8(SB)/8, $0x0000007f0000007f
DATA eluI127<>+16(SB)/8, $0x0000007f0000007f
DATA eluI127<>+24(SB)/8, $0x0000007f0000007f
GLOBL eluI127<>(SB), RODATA|NOPTR, $32

// lane numbers 0-7, for the avx2 tail mask
DATA eluIota<>+0(SB)/8, $0x0000000100000000
DATA eluIota<>+8(SB)/8, $0x0000000300000002
DATA eluIota<>+16(SB)/8, $0x0000000500000004
DATA eluIota<>+24(SB)/8, $0x0000000700000006
GLOBL eluIota<>(SB), RODATA|NOPTR, $32

// ELU8 is the sequence on one ymm of eight lanes: v holds the input (kept
// for the final blend), w max(v, expUnder) then r, f float k then 2^k bits
// then 2^k − 1, z the polynomial then the result, s r² then the select
// mask. Constants: Y10 0, Y11 expUnder, Y12 1/ln2, Y13/Y14 ln2 hi/lo, Y15
// 1, each broadcast by the caller; c5-c0 and 127 are read from memory.
#define ELU8(v, w, f, z, s) \
	VMAXPS       v, Y11, w; \
	VMULPS       Y12, w, f; \
	VROUNDPS     $8, f, f; \
	VFNMADD231PS Y13, f, w; \
	VFNMADD231PS Y14, f, w; \
	VMOVUPS      eluC5<>(SB), z; \
	VFMADD213PS  eluC4<>(SB), w, z; \
	VFMADD213PS  eluC3<>(SB), w, z; \
	VFMADD213PS  eluC2<>(SB), w, z; \
	VFMADD213PS  eluC1<>(SB), w, z; \
	VFMADD213PS  eluC0<>(SB), w, z; \
	VMULPS       w, w, s; \
	VFMADD213PS  w, s, z; \
	VCVTTPS2DQ   f, f; \
	VPADDD       eluI127<>(SB), f, f; \
	VPSLLD       $23, f, f; \
	VMULPS       f, z, z; \
	VSUBPS       Y15, f, f; \
	VADDPS       f, z, z; \
	VCMPPS       $6, Y10, v, s; \
	VBLENDVPS    s, v, z, z

// func eluBlock32(n int64, x, y *float32)
//
// n ≥ 1: sixteen elements per iteration as two ELU8 chains, then one
// chain of eight, then the remaining 1-7 through VMASKMOVPS.
TEXT ·eluBlock32(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	VXORPS       Y10, Y10, Y10
	VBROADCASTSS eluUnder<>(SB), Y11
	VBROADCASTSS eluInvLn2<>(SB), Y12
	VBROADCASTSS eluLn2Hi<>(SB), Y13
	VBROADCASTSS eluLn2Lo<>(SB), Y14
	VBROADCASTSS eluOne<>(SB), Y15

	CMPQ AX, $16
	JLT  e8

e16:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	ELU8(Y0, Y2, Y4, Y6, Y8)
	ELU8(Y1, Y3, Y5, Y7, Y9)
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, AX
	CMPQ    AX, $16
	JGE     e16

e8:
	CMPQ AX, $8
	JLT  etail
	VMOVUPS (SI), Y0
	ELU8(Y0, Y2, Y4, Y6, Y8)
	VMOVUPS Y6, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, AX

etail:
	TESTQ AX, AX
	JZ    edone
	// Y1 = lane < AX: the masked load zeroes the other lanes, the masked
	// store leaves them alone.
	VMOVQ        AX, X1
	VPBROADCASTD X1, Y1
	VMOVDQU      eluIota<>(SB), Y3
	VPCMPGTD     Y3, Y1, Y1
	VMASKMOVPS   (SI), Y1, Y0
	ELU8(Y0, Y2, Y4, Y6, Y8)
	VMASKMOVPS   Y6, Y1, (DI)

edone:
	VZEROUPPER
	RET

// ELU16 is ELU8 on sixteen zmm lanes, with 2^k applied by VSCALEFPS: z
// becomes pm1·2^f and s 2^f − 1 (1·2^f, less 1), where ELU8 builds 2^k in
// the exponent field. m is a scratch opmask. Constants, broadcast by the
// caller: Z16 0, Z17 expUnder, Z18 1/ln2, Z19/Z20 ln2 hi/lo, Z21-Z26
// c5-c0, Z27 1.
#define ELU16(v, w, f, z, s, m) \
	VMAXPS       v, Z17, w; \
	VMULPS       Z18, w, f; \
	VRNDSCALEPS  $8, f, f; \
	VFNMADD231PS Z19, f, w; \
	VFNMADD231PS Z20, f, w; \
	VMOVAPS      Z21, z; \
	VFMADD213PS  Z22, w, z; \
	VFMADD213PS  Z23, w, z; \
	VFMADD213PS  Z24, w, z; \
	VFMADD213PS  Z25, w, z; \
	VFMADD213PS  Z26, w, z; \
	VMULPS       w, w, s; \
	VFMADD213PS  w, s, z; \
	VSCALEFPS    f, z, z; \
	VSCALEFPS    f, Z27, s; \
	VSUBPS       Z27, s, s; \
	VADDPS       s, z, z; \
	VCMPPS       $6, Z16, v, m; \
	VBLENDMPS    v, z, m, z

// func eluBlock32x16(n int64, x, y *float32)
//
// n ≥ 1: thirty-two elements per iteration as two ELU16 chains, then one
// chain of sixteen, then the remaining 1-15 under an opmask.
TEXT ·eluBlock32x16(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	VPXORD       Z16, Z16, Z16
	VBROADCASTSS eluUnder<>(SB), Z17
	VBROADCASTSS eluInvLn2<>(SB), Z18
	VBROADCASTSS eluLn2Hi<>(SB), Z19
	VBROADCASTSS eluLn2Lo<>(SB), Z20
	VBROADCASTSS eluC5<>(SB), Z21
	VBROADCASTSS eluC4<>(SB), Z22
	VBROADCASTSS eluC3<>(SB), Z23
	VBROADCASTSS eluC2<>(SB), Z24
	VBROADCASTSS eluC1<>(SB), Z25
	VBROADCASTSS eluC0<>(SB), Z26
	VBROADCASTSS eluOne<>(SB), Z27

	CMPQ AX, $32
	JLT  z16

z32:
	VMOVUPS (SI), Z0
	VMOVUPS 64(SI), Z1
	ELU16(Z0, Z2, Z4, Z6, Z8, K1)
	ELU16(Z1, Z3, Z5, Z7, Z9, K2)
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, 64(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, AX
	CMPQ    AX, $32
	JGE     z32

z16:
	CMPQ AX, $16
	JLT  ztail
	VMOVUPS (SI), Z0
	ELU16(Z0, Z2, Z4, Z6, Z8, K1)
	VMOVUPS Z6, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, AX

ztail:
	TESTQ AX, AX
	JZ    zdone
	// K3 = the low AX lanes: the masked load zeroes the others, the masked
	// store leaves them alone.
	MOVQ    AX, CX
	MOVL    $1, BX
	SHLL    CX, BX
	DECL    BX
	KMOVW   BX, K3
	VMOVUPS.Z (SI), K3, Z0
	ELU16(Z0, Z2, Z4, Z6, Z8, K1)
	VMOVUPS Z6, K3, (DI)

zdone:
	VZEROUPPER
	RET

// func addBlock32(n int64, dst, v *float32)
//
// dst[i] += v[i], eight lanes at a time: the float32 twin of addBlock64
// (elu64_amd64.s) on the same contract. n is a positive multiple of 8.
TEXT ·addBlock32(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ v+16(FP), SI
	XORQ AX, AX

add32:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, CX
	JNZ     add32

	VZEROUPPER
	RET

// func addBlock32x16(n int64, dst, v *float32)
//
// addBlock32 on sixteen zmm lanes; n is a positive multiple of 16.
TEXT ·addBlock32x16(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ v+16(FP), SI
	XORQ AX, AX

add32x16:
	VMOVUPS (DI)(AX*4), Z0
	VADDPS  (SI)(AX*4), Z0, Z0
	VMOVUPS Z0, (DI)(AX*4)
	ADDQ    $16, AX
	SUBQ    $16, CX
	JNZ     add32x16

	VZEROUPPER
	RET
