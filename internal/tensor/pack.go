package tensor

import "sync"

// The float64 products, and the float32 packed cache-blocked GEMM tier.
//
// Arithmetic. Every float64 product — a·b + bias (MatMulBiasRows, MatMul),
// the accumulated aᵀ·b (MatMulATBAcc, MatMulATB) and a·bᵀ (a·b on the
// transpose) — has one definition: per output element
//
//	acc = +0, or the entry accumulator (MatMulATBAcc)
//	acc = math.FMA(a_k, b_k, acc)   for k ascending (rows, for aᵀ·b)
//	acc = acc + bias                (a bias, where there is one)
//
// written once in Go (fmaRows, gemm_packed.go). On the go rung that loop
// is the kernel; on both SIMD rungs the FMA tiles (simd_amd64.s) run it
// for every shape, each element in its own lane. So a float64 product's
// bits depend on no rung, tile, row range or thread count, and a golden
// file or a checkpoint moves between rungs freely.
//
// Layout. A float64 B operand has one layout, its own: the tiles read the
// row-major K×N matrix in place as 8-wide column panels (panel stride 8,
// k stride N), every row of b already an N-wide k step, and aᵀ·b reads b
// the same way. The last panel of an N that is not a multiple of 8 is
// partial: the tiles take its N mod 8 live lanes through masks, and never
// read the others. Packed panels exist for float32 only: at K·N >=
// packMinKN on the SIMD rungs, B is packed BLIS-style into 16-wide k-major
// column panels (PackedB32) — per call in MatMul32, once at compile for a
// serving engine's weights (PackB32).
//
// The A operand is deliberately NOT packed: it is the row-major streaming
// operand, each row is read with unit stride, and a tile's slice of A (4·K
// or 8·K elements) stays L1-resident across its panel sweep, so a pack
// pass would only add traffic.
//
// Blocking. Mc is the caller's row range — a parallel.ForTask chunk, or a
// row panel of an nn block — split freely across workers. The float32
// packed tier also blocks the rest: Kc (packKc) bounds the inner-dimension
// extent per kernel pass, with the accumulate flag resuming each element's
// chain across blocks, and Nc bounds the packed-panel bytes live per (kc,
// nc) block (packNcBudget) so the streamed panel group stays
// cache-resident. A float64 product is one pass over the whole K.
//
// Tiles. Every tile performs the exact per-element sequence of every
// other (the SIMD tiles — 8 rows × 2 panels and 8 × 1 in zmm, 4 × 1 and
// 1 × 1 in ymm — are all ascending-k fused multiply-adds into the
// element's own lane), so the drivers cover a row range with whatever mix
// of tiles fits (tileGrid.sweep).
//
// Rungs. Which kernels run is one ordered value, kernelTier below: pure
// Go, AVX2+FMA, or AVX-512F, detected from CPUID and XCR0 (detectSIMD) and
// lowered only by tests. A float64 product keeps no derived operand, so a
// toggle leaves nothing stale; a PackedB32 exists on the SIMD rungs only
// and is 16 wide on both.

const (
	// packMinKN engages the float32 packed tier when K*N >= packMinKN on
	// a SIMD rung: below it the f32 ops keep their scalar loops
	// (MatMul32Rows). Float64 has no threshold: every shape reads the
	// row-major operand in place.
	packMinKN = 1024

	// packNR is the float64 panel width: 8 columns of the row-major
	// operand, one zmm vector or two ymm.
	packNR = 8
)

// The float32 packed tier's blocking. Vars so tests can shrink them to
// exercise block remainders and panel groups; nothing else writes them.
var (
	// packKc is the Kc inner-dimension block.
	packKc = 2048
	// packNcBudget caps the packed-panel bytes streamed per (kc, nc)
	// block at roughly the L2 working set alongside A tiles and C rows.
	packNcBudget = 192 << 10
)

// kernelTier is the rung of the assembly kernels in use, ordered: a rung
// runs everything the rungs below it run, only wider.
//
//	tierGo      pure Go everywhere: the float64 products run their
//	            definition (fmaRows); no float32 packed tier.
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
// (elu32.go) on either; tierGo rounds the float32 exponential differently
// (expM1Neg).
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
	cpuTier    = detectSIMD()
	tier       = cpuTier
	packedGEMM = true
)

// SIMDEnabled reports whether the assembly kernels are in use (either
// SIMD rung).
func SIMDEnabled() bool { return tier >= tierAVX2 }

// setPackedGEMM toggles the float32 packed tier entirely (test hook);
// returns the previous setting.
func setPackedGEMM(on bool) bool {
	prev := packedGEMM
	packedGEMM = on
	return prev
}

// setKernelTier lowers the kernel tier to t (test hook). It can only
// lower: a request above what the CPU supports lands on cpuTier, which is
// also how a test restores the value it was handed back. Returns the
// previous tier.
func setKernelTier(t kernelTier) kernelTier {
	prev := tier
	tier = min(t, cpuTier)
	return prev
}

// packNR32 is the f32 panel width: 16 columns, the same 64 bytes per k
// step as the f64 panel, on both SIMD rungs. The f32 tier is SIMD-only;
// without AVX2 the f32 ops use their scalar kernels unpacked.
const packNR32 = 16

func usePacked32(k, n int) bool {
	return packedGEMM && tier >= tierAVX2 && k > 0 && k*n >= packMinKN
}

// ShouldPack32 reports whether the f32 packed tier would engage for a
// GEMM with inner dimension k and output width n — the compile-time
// predicate serving engines use to decide whether pre-packing a weight
// matrix (PackB32) is worthwhile. False on hardware without the SIMD
// tier or below the blocking threshold, where the scalar f32 kernel wins.
func ShouldPack32(k, n int) bool { return usePacked32(k, n) }

// PackedB32 is a B operand packed for the f32 GEMM tier: N/16 panels of
// K×16, and the N mod 16 remainder columns as K-long strips.
type PackedB32 struct {
	K, N, NR int
	panels   []float32
	tail     []float32
}

func (p *PackedB32) sizeFor(k, n, nr int) {
	p.K, p.N, p.NR = k, n, nr
	np := n / nr
	needP := np * k * nr
	needT := (n - np*nr) * k
	if cap(p.panels) < needP {
		p.panels = make([]float32, needP)
	}
	p.panels = p.panels[:needP]
	if cap(p.tail) < needT {
		p.tail = make([]float32, needT)
	}
	p.tail = p.tail[:needT]
}

func (p *PackedB32) packFrom(b *Matrix32) {
	k, n, nr := p.K, p.N, p.NR
	np := n / nr
	for pn := 0; pn < np; pn++ {
		dst := p.panels[pn*k*nr : (pn+1)*k*nr]
		for kk := 0; kk < k; kk++ {
			copy(dst[kk*nr:(kk+1)*nr], b.Data[kk*n+pn*nr:kk*n+(pn+1)*nr])
		}
	}
	for jt := 0; jt < n-np*nr; jt++ {
		strip := p.tail[jt*k : (jt+1)*k]
		j := np*nr + jt
		for kk := 0; kk < k; kk++ {
			strip[kk] = b.Data[kk*n+j]
		}
	}
}

// PackB32 packs b (K×N) for reuse across MatMul32PackedRows calls — the
// compile-time pack for the float32 serving twin's weights.
func PackB32(b *Matrix32) *PackedB32 {
	p := &PackedB32{}
	p.sizeFor(b.Rows, b.Cols, packNR32)
	p.packFrom(b)
	return p
}

var packScratch32 = sync.Pool{New: func() any { return new(PackedB32) }}

func getPackScratch32(k, n, nr int) *PackedB32 {
	p := packScratch32.Get().(*PackedB32)
	p.sizeFor(k, n, nr)
	return p
}

func putPackScratch32(p *PackedB32) { packScratch32.Put(p) }
