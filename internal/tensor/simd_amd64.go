package tensor

import "unsafe"

// CPU feature detection and declarations for the assembly kernels in
// simd_amd64.s, elu64_amd64.s, elu32_amd64.s,
// ln32_amd64.s, gather_amd64.s and colacc_amd64.s. detectSIMD reads CPUID
// and XCR0 alone and reports the highest rung of the kernel tier
// (pack.go) the machine can run.

// The GEMM tiles share one signature (see simd_amd64.s): strides in bytes,
// bias nil for no epilogue, and for the d-tiles acc != 0 to resume an
// accumulation. The one-panel tiles also take the panel's live lanes, 1 to
// 8 float64 or 1 to 16 float32, and dgemmTile8x1 the number of 8-row
// stripes it walks.

//go:noescape
func dgemmTile8(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc int64)

//go:noescape
func dgemmTile8x1(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes, stripes int64)

//go:noescape
func dgemmTile4(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes int64)

//go:noescape
func dgemmTile1(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes int64)

//go:noescape
func sgemmTile8(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32)

//go:noescape
func sgemmTile4(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, lanes int64)

//go:noescape
func sgemmTile1(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, lanes int64)

// The ELU kernels of both element types (elu32_amd64.s, elu64_amd64.s):
// any n >= 1, the elements past the last whole vector through masked
// lanes.

//go:noescape
func eluBlock32(n int64, x, y *float32)

//go:noescape
func eluBlock32x16(n int64, x, y *float32)

//go:noescape
func eluBlock64(n int64, x, y *float64)

//go:noescape
func eluBlock64x8(n int64, x, y *float64)

// The ELU′ and add kernels (elu64_amd64.s, elu32_amd64.s). n is a
// positive multiple of the kernel's lane count: 4 for the float64 AVX2
// kernels, 8 for their x8 AVX-512 twins and for addBlock32, 16 for
// addBlock32x16.

//go:noescape
func eluGradBlock64(n int64, y, dy, dx *float64)

//go:noescape
func addBlock64(n int64, dst, v *float64)

//go:noescape
func eluGradBlock64x8(n int64, y, dy, dx *float64)

//go:noescape
func addBlock64x8(n int64, dst, v *float64)

//go:noescape
func addBlock32(n int64, dst, v *float32)

//go:noescape
func addBlock32x16(n int64, dst, v *float32)

// lnBlock32x8 and lnBlock64x8 are the LayerNorm of groups × 8 contiguous
// rows (ln32_amd64.s) for each element type. lnBlock64x8 also writes the
// backward pass's caches, xhat and invStd, where they are not nil.
//
//go:noescape
func lnBlock32x8(groups, cols int64, src, dst, gain, shift *float32, eps float64)

//go:noescape
func lnBlock64x8(groups, cols int64, src, dst, xhat, invStd, gain, shift *float64, eps float64)

// lnGrad64x8 is the float64 LayerNorm's input gradient of groups × 8
// contiguous rows (ln32_amd64.s).
//
//go:noescape
func lnGrad64x8(groups, cols int64, dy, xhat, invStd, gain, dx *float64)

// colAcc64 (avx2) and colAcc64x8 (avx512) add rows rows of a (cols
// columns, contiguous) into sum, column by column, and where b is not nil
// the products a·b into dot (colacc_amd64.s).
//
//go:noescape
func colAcc64(rows, cols int64, a, b, sum, dot *float64)

//go:noescape
func colAcc64x8(rows, cols int64, a, b, sum, dot *float64)

// The span-accumulate kernels of SpanAcc (colacc_amd64.s): dst += Σ_k
// scale[k]·src row r_k over n terms, r_k = idx[k] or k, rows stride
// elements apart; scale nil for no multiply. Each returns how many
// leading columns of dst it finished: all of them, or none when an index
// is not below rows.
//
//go:noescape
func spanAcc64(n, cols, stride, rows int64, src *float64, idx *int, scale, dst *float64) (done int64)

//go:noescape
func spanAcc64x8(n, cols, stride, rows int64, src *float64, idx *int, scale, dst *float64) (done int64)

//go:noescape
func spanAcc32(n, cols, stride, rows int64, src *float32, idx *int, scale *float64, dst *float32) (done int64)

//go:noescape
func spanAcc32x16(n, cols, stride, rows int64, src *float32, idx *int, scale *float64, dst *float32) (done int64)

// The edge-row gather-adds of GatherAddEdgeRows (gather_amd64.s), one per
// element type and SIMD rung: edgeRowsAdd64 and edgeRowsAdd32 (avx2),
// edgeRowsAdd64x8 and edgeRowsAdd32x16 (avx512). rowBytes is h times the
// element size; each returns how many leading edges it did, stopping at
// one whose indexes are not below nx.
//
//go:noescape
func edgeRowsAdd64(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64)

//go:noescape
func edgeRowsAdd64x8(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64)

//go:noescape
func edgeRowsAdd32(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64)

//go:noescape
func edgeRowsAdd32x16(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64)

func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// detectSIMD reports the highest kernel rung the CPU and the OS support:
// tierAVX2 needs AVX2, FMA and OS-managed ymm state (OSXSAVE, XCR0[2:1]);
// tierAVX512 needs AVX-512F (CPUID 7.0:EBX[16]) and OS-managed opmask and
// zmm state (XCR0[7:5]) on top.
func detectSIMD() kernelTier {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return tierGo
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return tierGo
	}
	// OS must save/restore both xmm and ymm state.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return tierGo
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
	)
	if ebx7&avx2Bit == 0 {
		return tierGo
	}
	if ebx7&avx512fBit == 0 || xcr0&0xe0 != 0xe0 {
		return tierAVX2
	}
	return tierAVX512
}
