// AVX2 and AVX-512F kernels for the float32 elementwise tier: the ELU map
// (elu32.go) twice — eluBlock32, 16 elements per iteration as two 8-lane
// ymm chains, and eluBlock32x16, 32 per iteration as two 16-lane zmm
// chains — and, at the end of the file, the add kernels behind the bias
// and residual adds (ops32.go), 8 and 16 lanes.
//
// In both ELU blocks the two groups' serial dependency chains interleave
// in the pipeline, every arithmetic step is an UNFUSED multiply, add or
// subtract in exactly the order of the scalar expM1Neg reference (the Go
// compiler emits the same unfused sequence on amd64), the underflow clamp
// is a compare + blend replaying the scalar branch, and the floor and 2^k
// construction are the same integer-domain tricks — so each lane's bits
// are identical to the pure-Go path, on either rung, and chunk boundaries
// stay invisible.

#include "textflag.h"

DATA eluHalf<>+0(SB)/8, $0x3f0000003f000000
DATA eluHalf<>+8(SB)/8, $0x3f0000003f000000
DATA eluHalf<>+16(SB)/8, $0x3f0000003f000000
DATA eluHalf<>+24(SB)/8, $0x3f0000003f000000
GLOBL eluHalf<>(SB), RODATA|NOPTR, $32

DATA eluAbs<>+0(SB)/8, $0x7fffffff7fffffff
DATA eluAbs<>+8(SB)/8, $0x7fffffff7fffffff
DATA eluAbs<>+16(SB)/8, $0x7fffffff7fffffff
DATA eluAbs<>+24(SB)/8, $0x7fffffff7fffffff
GLOBL eluAbs<>(SB), RODATA|NOPTR, $32

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

// 16384.5: the add-large-bias floor
DATA eluBias<>+0(SB)/8, $0x4680010046800100
DATA eluBias<>+8(SB)/8, $0x4680010046800100
DATA eluBias<>+16(SB)/8, $0x4680010046800100
DATA eluBias<>+24(SB)/8, $0x4680010046800100
GLOBL eluBias<>(SB), RODATA|NOPTR, $32

DATA eluI16384<>+0(SB)/8, $0x0000400000004000
DATA eluI16384<>+8(SB)/8, $0x0000400000004000
DATA eluI16384<>+16(SB)/8, $0x0000400000004000
DATA eluI16384<>+24(SB)/8, $0x0000400000004000
GLOBL eluI16384<>(SB), RODATA|NOPTR, $32

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

// func eluBlock32(n int64, x, y *float32)
//
// n must be a positive multiple of 16. Register plan per 8-lane group
// (a: even Y regs, b: odd): Y0/Y1 input v (live to the final blend),
// Y2/Y3 w then r, Y4/Y5 k then the 2^k bits, Y6/Y7 fk then the select
// mask, Y8/Y9 scratch then the result, Y10/Y11 the polynomial. Y12-Y15
// hold the four constants touched more than once per group.
TEXT ·eluBlock32(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	VXORPS  Y12, Y12, Y12
	VMOVUPS eluUnder<>(SB), Y13
	VMOVUPS eluAbs<>(SB), Y14
	VMOVUPS eluHalf<>(SB), Y15

eloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1

	// w = 0.5*(v - |v|) = min(v, 0), bit-exact with minZero32
	VANDPS Y14, Y0, Y2
	VANDPS Y14, Y1, Y3
	VSUBPS Y2, Y0, Y2
	VSUBPS Y3, Y1, Y3
	VMULPS Y15, Y2, Y2
	VMULPS Y15, Y3, Y3

	// if w < expUnder { w = expUnder }
	VCMPPS    $1, Y13, Y2, Y6
	VCMPPS    $1, Y13, Y3, Y7
	VBLENDVPS Y6, Y13, Y2, Y2
	VBLENDVPS Y7, Y13, Y3, Y3

	// k = int32(w/ln2 + 16384.5) - 16384 (truncation of a positive value)
	VMULPS     eluInvLn2<>(SB), Y2, Y4
	VMULPS     eluInvLn2<>(SB), Y3, Y5
	VADDPS     eluBias<>(SB), Y4, Y4
	VADDPS     eluBias<>(SB), Y5, Y5
	VCVTTPS2DQ Y4, Y4
	VCVTTPS2DQ Y5, Y5
	VPSUBD     eluI16384<>(SB), Y4, Y4
	VPSUBD     eluI16384<>(SB), Y5, Y5
	VCVTDQ2PS  Y4, Y6
	VCVTDQ2PS  Y5, Y7

	// r = w - fk*ln2hi; r -= fk*ln2lo
	VMULPS eluLn2Hi<>(SB), Y6, Y8
	VMULPS eluLn2Hi<>(SB), Y7, Y9
	VSUBPS Y8, Y2, Y2
	VSUBPS Y9, Y3, Y3
	VMULPS eluLn2Lo<>(SB), Y6, Y8
	VMULPS eluLn2Lo<>(SB), Y7, Y9
	VSUBPS Y8, Y2, Y2
	VSUBPS Y9, Y3, Y3

	// z = ((((c5*r + c4)*r + c3)*r + c2)*r + c1)*r + c0
	VMOVUPS eluC5<>(SB), Y10
	VMOVUPS eluC5<>(SB), Y11
	VMULPS  Y2, Y10, Y10
	VMULPS  Y3, Y11, Y11
	VADDPS  eluC4<>(SB), Y10, Y10
	VADDPS  eluC4<>(SB), Y11, Y11
	VMULPS  Y2, Y10, Y10
	VMULPS  Y3, Y11, Y11
	VADDPS  eluC3<>(SB), Y10, Y10
	VADDPS  eluC3<>(SB), Y11, Y11
	VMULPS  Y2, Y10, Y10
	VMULPS  Y3, Y11, Y11
	VADDPS  eluC2<>(SB), Y10, Y10
	VADDPS  eluC2<>(SB), Y11, Y11
	VMULPS  Y2, Y10, Y10
	VMULPS  Y3, Y11, Y11
	VADDPS  eluC1<>(SB), Y10, Y10
	VADDPS  eluC1<>(SB), Y11, Y11
	VMULPS  Y2, Y10, Y10
	VMULPS  Y3, Y11, Y11
	VADDPS  eluC0<>(SB), Y10, Y10
	VADDPS  eluC0<>(SB), Y11, Y11

	// pm1 = (z*r)*r + r
	VMULPS Y2, Y10, Y8
	VMULPS Y3, Y11, Y9
	VMULPS Y2, Y8, Y8
	VMULPS Y3, Y9, Y9
	VADDPS Y2, Y8, Y8
	VADDPS Y3, Y9, Y9

	// scale = float32frombits((k+127) << 23)
	VPADDD eluI127<>(SB), Y4, Y4
	VPADDD eluI127<>(SB), Y5, Y5
	VPSLLD $23, Y4, Y4
	VPSLLD $23, Y5, Y5

	// e = scale*pm1 + (scale - 1)
	VMULPS Y4, Y8, Y8
	VMULPS Y5, Y9, Y9
	VSUBPS eluOne<>(SB), Y4, Y4
	VSUBPS eluOne<>(SB), Y5, Y5
	VADDPS Y4, Y8, Y8
	VADDPS Y5, Y9, Y9

	// positive lanes select the identity: e = v > 0 ? v : e
	VCMPPS    $14, Y12, Y0, Y6
	VCMPPS    $14, Y12, Y1, Y7
	VBLENDVPS Y6, Y0, Y8, Y8
	VBLENDVPS Y7, Y1, Y9, Y9

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)

	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, AX
	JNZ  eloop

	VZEROUPPER
	RET

// ELU16 is one 8-lane group of eluBlock32 on sixteen zmm lanes, step for
// step; where AVX-512F spells a step differently the operation is
// unchanged: VANDPS (AVX-512DQ in zmm) -> VPANDD, VCMPPS -> opmask and
// VBLENDVPS -> VBLENDMPS. Every constant is a register, broadcast by the
// caller from the literals eluBlock32 reads: Z12 0, Z13 expUnder, Z14 the
// abs mask, Z15 0.5, Z16 1/ln2, Z17 16384.5, Z18 16384 (int), Z19/Z20 ln2
// hi/lo, Z21-Z26 c5-c0, Z27 1, Z28 127 (int). v holds the input (kept for
// the final blend), w min(v, 0) then r, k the integer part then 2^k, f
// float(k), s scratch then the result, z the polynomial; m is a scratch
// opmask.
#define ELU16(v, w, k, f, s, z, m) \
	VPANDD     Z14, v, w; \
	VSUBPS     w, v, w; \
	VMULPS     Z15, w, w; \
	VCMPPS     $1, Z13, w, m; \
	VBLENDMPS  Z13, w, m, w; \
	VMULPS     Z16, w, k; \
	VADDPS     Z17, k, k; \
	VCVTTPS2DQ k, k; \
	VPSUBD     Z18, k, k; \
	VCVTDQ2PS  k, f; \
	VMULPS     Z19, f, s; \
	VSUBPS     s, w, w; \
	VMULPS     Z20, f, s; \
	VSUBPS     s, w, w; \
	VMULPS     w, Z21, z; \
	VADDPS     Z22, z, z; \
	VMULPS     w, z, z; \
	VADDPS     Z23, z, z; \
	VMULPS     w, z, z; \
	VADDPS     Z24, z, z; \
	VMULPS     w, z, z; \
	VADDPS     Z25, z, z; \
	VMULPS     w, z, z; \
	VADDPS     Z26, z, z; \
	VMULPS     w, z, s; \
	VMULPS     w, s, s; \
	VADDPS     w, s, s; \
	VPADDD     Z28, k, k; \
	VPSLLD     $23, k, k; \
	VMULPS     k, s, s; \
	VSUBPS     Z27, k, k; \
	VADDPS     k, s, s; \
	VCMPPS     $14, Z12, v, m; \
	VBLENDMPS  v, s, m, s

// func eluBlock32x16(n int64, x, y *float32)
//
// n must be a positive multiple of 32.
TEXT ·eluBlock32x16(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	VPXORD       Z12, Z12, Z12
	VBROADCASTSS eluUnder<>(SB), Z13
	VPBROADCASTD eluAbs<>(SB), Z14
	VBROADCASTSS eluHalf<>(SB), Z15
	VBROADCASTSS eluInvLn2<>(SB), Z16
	VBROADCASTSS eluBias<>(SB), Z17
	VPBROADCASTD eluI16384<>(SB), Z18
	VBROADCASTSS eluLn2Hi<>(SB), Z19
	VBROADCASTSS eluLn2Lo<>(SB), Z20
	VBROADCASTSS eluC5<>(SB), Z21
	VBROADCASTSS eluC4<>(SB), Z22
	VBROADCASTSS eluC3<>(SB), Z23
	VBROADCASTSS eluC2<>(SB), Z24
	VBROADCASTSS eluC1<>(SB), Z25
	VBROADCASTSS eluC0<>(SB), Z26
	VBROADCASTSS eluOne<>(SB), Z27
	VPBROADCASTD eluI127<>(SB), Z28

elux32:
	VMOVUPS (SI), Z0
	VMOVUPS 64(SI), Z1
	ELU16(Z0, Z2, Z4, Z6, Z8, Z10, K1)
	ELU16(Z1, Z3, Z5, Z7, Z9, Z11, K2)
	VMOVUPS Z8, (DI)
	VMOVUPS Z9, 64(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, AX
	JNZ     elux32

	VZEROUPPER
	RET

// func addBlock32(n int64, dst, v *float32) (done int64)
//
// dst[i] += v[i], eight lanes at a time: the float32 twin of addBlock64
// (elu64_amd64.s) on the same contract. n is a positive multiple of 8; it
// stops at a block where dst or v is NaN, because with two NaN operands
// the payload x86 propagates depends on the operand order, which the Go
// compiler picks for the scalar loop.
TEXT ·addBlock32(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ v+16(FP), SI
	XORQ AX, AX

add32:
	VMOVUPS   (DI)(AX*4), Y0
	VMOVUPS   (SI)(AX*4), Y1
	VCMPPS    $3, Y1, Y0, Y2
	VMOVMSKPS Y2, DX
	TESTQ     DX, DX
	JNZ       add32done
	VADDPS    Y1, Y0, Y0
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	SUBQ      $8, CX
	JNZ       add32

add32done:
	VZEROUPPER
	MOVQ AX, done+24(FP)
	RET

// func addBlock32x16(n int64, dst, v *float32) (done int64)
//
// addBlock32 on sixteen zmm lanes; n is a positive multiple of 16.
TEXT ·addBlock32x16(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ v+16(FP), SI
	XORQ AX, AX

add32x16:
	VMOVUPS  (DI)(AX*4), Z0
	VMOVUPS  (SI)(AX*4), Z1
	VCMPPS   $3, Z1, Z0, K1
	KORTESTW K1, K1
	JNZ      add32x16done
	VADDPS   Z1, Z0, Z0
	VMOVUPS  Z0, (DI)(AX*4)
	ADDQ     $16, AX
	SUBQ     $16, CX
	JNZ      add32x16

add32x16done:
	VZEROUPPER
	MOVQ AX, done+24(FP)
	RET
