//go:build !amd64

package tensor

import "unsafe"

// Non-amd64 builds never select the assembly kernels: detectSIMD reports
// tierGo, so the stubs below are unreachable. They exist to keep the
// drivers building on every platform.

func detectSIMD() kernelTier { return tierGo }

const noSIMD = "tensor: SIMD kernel called without hardware support"

func dgemmTile8(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc int64) {
	panic(noSIMD)
}

func dgemmTile8x1(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes, stripes int64) {
	panic(noSIMD)
}

func dgemmTile4(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes int64) {
	panic(noSIMD)
}

func dgemmTile1(kc int64, a *float64, lda, astride int64, bp *float64, panelStride, bstride int64, c *float64, ldc int64, bias *float64, acc, lanes int64) {
	panic(noSIMD)
}

func sgemmTile8(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32) {
	panic(noSIMD)
}

func sgemmTile4(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, lanes int64) {
	panic(noSIMD)
}

func sgemmTile1(kc int64, a *float32, lda, astride int64, bp *float32, panelStride, bstride int64, c *float32, ldc int64, bias *float32, lanes int64) {
	panic(noSIMD)
}

func eluBlock32(n int64, x, y *float32)    { panic(noSIMD) }
func eluBlock32x16(n int64, x, y *float32) { panic(noSIMD) }
func eluBlock64(n int64, x, y *float64)    { panic(noSIMD) }
func eluBlock64x8(n int64, x, y *float64)  { panic(noSIMD) }

func eluGradBlock64(n int64, y, dy, dx *float64)   { panic(noSIMD) }
func addBlock64(n int64, dst, v *float64)          { panic(noSIMD) }
func eluGradBlock64x8(n int64, y, dy, dx *float64) { panic(noSIMD) }
func addBlock64x8(n int64, dst, v *float64)        { panic(noSIMD) }
func addBlock32(n int64, dst, v *float32)          { panic(noSIMD) }
func addBlock32x16(n int64, dst, v *float32)       { panic(noSIMD) }

func lnBlock32x8(groups, cols int64, src, dst, gain, shift *float32, eps float64) {
	panic(noSIMD)
}

func lnBlock64x8(groups, cols int64, src, dst, xhat, invStd, gain, shift *float64, eps float64) {
	panic(noSIMD)
}

func lnGrad64x8(groups, cols int64, dy, xhat, invStd, gain, dx *float64) { panic(noSIMD) }

func colAcc64(rows, cols int64, a, b, sum, dot *float64)   { panic(noSIMD) }
func colAcc64x8(rows, cols int64, a, b, sum, dot *float64) { panic(noSIMD) }

func spanAcc64(n, cols, stride, rows int64, src *float64, idx *int, scale, dst *float64) (done int64) {
	panic(noSIMD)
}

func spanAcc64x8(n, cols, stride, rows int64, src *float64, idx *int, scale, dst *float64) (done int64) {
	panic(noSIMD)
}

func spanAcc32(n, cols, stride, rows int64, src *float32, idx *int, scale *float64, dst *float32) (done int64) {
	panic(noSIMD)
}

func spanAcc32x16(n, cols, stride, rows int64, src *float32, idx *int, scale *float64, dst *float32) (done int64) {
	panic(noSIMD)
}

func edgeRowsAdd64(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64) {
	panic(noSIMD)
}

func edgeRowsAdd64x8(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64) {
	panic(noSIMD)
}

func edgeRowsAdd32(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64) {
	panic(noSIMD)
}

func edgeRowsAdd32x16(n, rowBytes, nx int64, edges *[2]int, p, q, dst unsafe.Pointer) (done int64) {
	panic(noSIMD)
}
