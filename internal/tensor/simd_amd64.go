package tensor

// CPU feature detection and declarations for the AVX2+FMA microkernels in
// simd_amd64.s. The packed GEMM tier uses the assembly kernels only when
// the CPU reports AVX2, FMA, and OS support for ymm state (OSXSAVE +
// XCR0[2:1] == 11b); otherwise it falls through to the pure-Go packed
// microkernels, which are bitwise-identical to the legacy kernels.

//go:noescape
func dgemmTile4(kc int64, a0, a1, a2, a3 *float64, astride int64, bp *float64, bstride int64, c0, c1, c2, c3 *float64, acc int64)

//go:noescape
func dgemmTile1(kc int64, a0 *float64, astride int64, bp *float64, bstride int64, c0 *float64, acc int64)

//go:noescape
func sgemmTile4(kc int64, a0, a1, a2, a3 *float32, astride int64, bp *float32, bstride int64, c0, c1, c2, c3 *float32, acc int64)

//go:noescape
func sgemmTile1(kc int64, a0 *float32, astride int64, bp *float32, bstride int64, c0 *float32, acc int64)

//go:noescape
func eluBlock32(n int64, x, y *float32)

// The float64 elementwise kernels (elu64_amd64.s). n is a positive
// multiple of 4; each returns how many leading elements it finished,
// stopping at the first 4-block it cannot do bit-exactly.

//go:noescape
func eluBlock64(n int64, x, y *float64) (done int64)

//go:noescape
func eluGradBlock64(n int64, y, dy, dx *float64) (done int64)

//go:noescape
func addBlock64(n int64, dst, v *float64) (done int64)

func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

func detectSIMD() bool {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// OS must save/restore both xmm and ymm state.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
