package tensor

// The products of both element types: one arithmetic per element type, one
// layout, one tile grid.
//
// Arithmetic. Every float64 product — a·b + bias (MatMulBiasRows, MatMul),
// the accumulated aᵀ·b (MatMulATBAcc, MatMulATB) and a·bᵀ (a·b on the
// transpose) — has one definition: per output element
//
//	acc = +0, or the entry accumulator (MatMulATBAcc)
//	acc = math.FMA(a_k, b_k, acc)   for k ascending (rows, for aᵀ·b)
//	acc = acc + bias                (a bias, where there is one)
//
// written once in Go (fmaRows, gemm.go). On the go rung that loop is the
// kernel; on both SIMD rungs the FMA tiles (simd_amd64.s) run it for every
// shape, each element in its own lane. So a float64 product's bits depend
// on no rung, tile, row range or thread count, and a golden file or a
// checkpoint moves between rungs freely.
//
// Every float32 product (MatMul32BiasRows, MatMul32) runs the same
// sequence in float32 on both SIMD rungs: +0, one fused multiply-add per
// k, k ascending, then the bias, on the s-tiles, whatever the shape. Go
// has no float32 fused multiply-add, so the go rung's loop (mulRows32,
// gemm.go) rounds each product before it adds it: the same order, held to
// the tiles within a tolerance, as the go rung's float32 exponential
// (expM1Neg) is to theirs.
//
// Layout. A B operand has one layout, its own, for both element types: the
// tiles read the row-major K×N matrix in place as 64-byte column panels —
// 8 float64 or 16 float32 columns, panel stride 8 or 16, k stride N —
// every row of b already an N-wide k step, and aᵀ·b reads b the same way.
// The last panel of an N that is not a multiple of the lanes is partial:
// the tiles take its live lanes through masks, and never read the others.
// Nothing is packed, so nothing derived from a weight can go stale.
//
// The A operand is not packed either: it is the row-major streaming
// operand, each row is read with unit stride, and a tile's slice of A (4·K
// or 8·K elements) stays L1-resident across its panel sweep, so a pack
// pass would only add traffic.
//
// Blocking. Mc is the caller's row range — a parallel.ForTask chunk, or a
// row panel of an nn block — split freely across workers. Nothing blocks K
// or N: a product is one pass over the whole K, panel by panel.
//
// Tiles. Every tile performs the exact per-element sequence of every
// other (the SIMD tiles — 8 rows × 2 panels and 8 × 1 in zmm, 4 × 1 and
// 1 × 1 in ymm — are all ascending-k fused multiply-adds into the
// element's own lane), so the drivers cover a row range with whatever mix
// of tiles fits (tileGrid.sweep).
//
// Rungs. Which kernels run is one ordered value, kernelTier below: pure
// Go, AVX2+FMA, or AVX-512F, detected from CPUID and XCR0 (detectSIMD) and
// lowered only by tests. No product keeps a derived operand, so a toggle
// leaves nothing stale.

const (
	// packNR is the float64 panel width: 8 columns of the row-major
	// operand, one zmm vector or two ymm.
	packNR = 8

	// packNR32 is the float32 panel width: 16 columns, the same 64 bytes
	// per k step, on both SIMD rungs.
	packNR32 = 16
)

// kernelTier is the rung of the assembly kernels in use, ordered: a rung
// runs everything the rungs below it run, only wider.
//
//	tierGo      pure Go everywhere: the float64 products run their
//	            definition (fmaRows), the float32 ones mulRows32.
//	tierAVX2    AVX2+FMA: 4-row × 1-panel GEMM tiles over 64-byte panels
//	            (8 float64 or 16 float32 columns), 4-lane float64 and
//	            8-lane float32 elementwise kernels.
//	tierAVX512  AVX-512F under both element types: 8-row zmm GEMM tiles
//	            over the same panels, two panels wide or one (heads and
//	            tails fall to the AVX2 tiles), elementwise kernels of twice
//	            the lanes and the float32 LayerNorm kernel (layernorm32.go).
//
// Every float64 product and the float64 ELU (Elu, elu64.go) have one
// definition on all three rungs. The two SIMD rungs are also bit-for-bit
// equal under float32: an output element sees the same ascending-k fused
// multiply-adds and every float32 exponential the same fused sequence
// (elu32.go) on either; tierGo rounds the float32 products (mulRows32) and
// the float32 exponential (expM1Neg) differently.
//
// Every bitwise contract of this package — across rungs where the above
// says so, threads, ranks, transports and batch sizes, and of a kernel
// against its scalar definition — holds at every element that is not NaN:
// there the bits are equal, and an element is NaN on one side exactly
// where it is NaN on the other. Which NaN it is, is unspecified. IEEE 754
// does not say which payload survives where two NaNs meet, and x86 keeps
// an operand's by an order the Go compiler picks per loop, so every kernel
// runs to the end of its range whatever its data hold.
type kernelTier int

const (
	tierGo kernelTier = iota
	tierAVX2
	tierAVX512
)

func (t kernelTier) String() string { return [...]string{"go", "avx2", "avx512"}[t] }

var (
	// cpuTier is the highest rung the CPU and OS support, from CPUID and
	// XCR0 alone; tier is the rung in use, which only tests move.
	cpuTier = detectSIMD()
	tier    = cpuTier
)

// SIMDEnabled reports whether the assembly kernels are in use (either
// SIMD rung).
func SIMDEnabled() bool { return tier >= tierAVX2 }

// setKernelTier lowers the kernel tier to t (test hook). It can only
// lower: a request above what the CPU supports lands on cpuTier, which is
// also how a test restores the value it was handed back. Returns the
// previous tier.
func setKernelTier(t kernelTier) kernelTier {
	prev := tier
	tier = min(t, cpuTier)
	return prev
}
