package tensor

import (
	"fmt"
	"sync"
)

// Packed cache-blocked GEMM tier.
//
// Layout. A B operand (K×N) is packed BLIS-style into NR-wide k-major
// column panels: panel p holds columns [p·NR, (p+1)·NR) as K contiguous
// NR-vectors, so the register microkernel streams exactly one vector load
// sequence per k step regardless of N or the operand's leading dimension.
// The N mod NR remainder columns are packed as K-long contiguous column
// strips consumed by a scalar tail loop. PackBT routes the transpose of
// an N×K row-major matrix through the same layout, which is how a·bᵀ
// reuses the identical microkernel; for MatMulATB the packed layout
// degenerates to the natural row-major layout of B (every row IS an
// N-wide k-step), so that path streams B directly.
//
// The A operand is deliberately NOT packed in the drivers: it is the
// row-major streaming operand, each row is read with unit stride, and a
// tile's slice of A (4·K or 8·K floats) stays L1-resident across its
// panel sweep, so a pack pass would only add traffic. PackB/PackBT exist
// for weight matrices reused across calls (serving engines pack once at
// compile time); the in-driver pack path re-packs per call, which for the
// shapes in this system costs under 0.1% of the multiply's flops.
//
// Blocking. Mc is the caller's row range — MatMul's parallel.ForTask
// chunk, or a row panel of an nn block — split freely across workers. Kc
// (packKc) bounds the inner-dimension extent per kernel pass, with the
// accumulate flag resuming the same per-element summation order across
// blocks. Nc bounds the packed-panel
// bytes live per (kc, nc) block (packNcBudget) so the streamed panel
// group stays cache-resident.
//
// Determinism. The tier engages on a threshold over K·N ONLY — never the
// row count — so the kernel a given row meets is independent of how rows
// are partitioned across ranks, chunks, or threads. Within the tier,
// every tile performs the exact per-element operation sequence of every
// other tile of its kind (the SIMD tiles — 8 rows × 2 panels in zmm, 4 × 1
// and 1 × 1 in ymm — are all ascending-k fused multiply-adds into the
// element's own lane; the pure-Go 1-row kernel mirrors the 2-row
// kernel's), so a row's bits never depend on which tile computed it, and
// the drivers cover a row range with whatever mix of tiles fits
// (tileGrid.sweep). The pure-Go packed kernels keep the legacy rank-4
// grouped expression and are bitwise-identical to the legacy kernels on
// finite data; the SIMD tiles use fused multiply-add and round differently
// — identically for every thread count, partitioning and SIMD rung.
//
// Rungs. Which kernels run is one ordered value, kernelTier below: pure
// Go, AVX2+FMA, or AVX-512F, detected from CPUID and XCR0 (detectSIMD) and
// lowered only by tests. The f64 panel width NR is 4 on the pure-Go rung
// and 8 on both SIMD rungs, so a PackedB outlives a toggle between the
// SIMD rungs and must be re-packed only across the pure-Go boundary
// (PackWidth, Repack); a PackedB32 exists on the SIMD rungs only and is
// 16 wide on both.

const (
	// packMinKN engages the packed tier when K*N >= packMinKN. Small
	// shapes (the SmallConfig model, scalar heads) keep the legacy rank-4
	// grouped expression, whose bits they have golden files against:
	// MatMulBiasRows (ops.go), which on the SIMD rungs replays it without
	// FMA in an unpacked assembly kernel.
	packMinKN = 1024
)

// Vars so tests can shrink them to exercise block remainders and panel
// groups; nothing else writes them.
var (
	// packKc is the Kc inner-dimension block. It is a multiple of 4 so the
	// pure-Go kernels' rank-4 group boundaries are identical with and
	// without the split.
	packKc = 2048
	// packNcBudget caps the packed-panel bytes streamed per (kc, nc)
	// block at roughly the L2 working set alongside A tiles and C rows.
	packNcBudget = 192 << 10
)

// kernelTier is the rung of the assembly kernels in use, ordered: a rung
// runs everything the rungs below it run, only wider.
//
//	tierGo      pure Go everywhere: the packed kernels keep the legacy
//	            rank-4 grouped expression, NR = 4; no float32 packed tier.
//	tierAVX2    AVX2+FMA: 4-row × 1-panel GEMM tiles over 64-byte panels
//	            (NR = 8 float64 or 16 float32 columns), the unpacked
//	            float64 GEMM on two ymm per 8 columns, 4-lane float64 and
//	            8-lane float32 elementwise kernels.
//	tierAVX512  AVX-512F under both element types: an 8-row × 2-panel zmm
//	            GEMM tile over the same panels (heads, tails and an odd
//	            last panel fall to the AVX2 tiles), the unpacked float64
//	            GEMM on one zmm per 8 columns, elementwise kernels of
//	            twice the lanes and the float32 LayerNorm kernel
//	            (layernorm32.go).
//
// The two SIMD rungs are bit-for-bit equal: an output element sees the
// same ascending-k fused multiply-adds (below packMinKN, all three rungs
// see the legacy unfused expression) and every float32 exponential the
// same fused sequence (elu32.go) on either, so a PackedB, a PackedB32, a
// golden file and a checkpoint move between them freely. The float64 ELU
// is one definition on all three rungs (Elu, elu64.go). tierGo rounds the
// rest differently (no FMA: the packed tier and the float32 exponential,
// expM1Neg) and packs narrower panels.
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

// setPackedGEMM toggles the packed tier entirely (test hook); returns the
// previous setting.
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

// packNR is the f64 panel width: 8 columns for both SIMD rungs (one zmm
// vector, or two ymm), 4 for the pure-Go rank-4 kernels.
func packNR() int {
	if tier >= tierAVX2 {
		return 8
	}
	return 4
}

// packNR32 is the f32 panel width: 16 columns, the same 64 bytes per k
// step as the f64 panel, on both SIMD rungs. The f32 tier is SIMD-only;
// without AVX2 the f32 ops use their scalar kernels unpacked.
const packNR32 = 16

func usePacked(k, n int) bool {
	return packedGEMM && k > 0 && k*n >= packMinKN
}

func usePacked32(k, n int) bool {
	return packedGEMM && tier >= tierAVX2 && k > 0 && k*n >= packMinKN
}

// ShouldPack32 reports whether the f32 packed tier would engage for a
// GEMM with inner dimension k and output width n — the compile-time
// predicate serving engines use to decide whether pre-packing a weight
// matrix (PackB32) is worthwhile. False on hardware without the SIMD
// tier or below the blocking threshold, where the scalar f32 kernel wins.
func ShouldPack32(k, n int) bool { return usePacked32(k, n) }

// ShouldPack is the f64 twin of ShouldPack32: it reports whether MatMul
// itself would route a (·,k)·(k,n) product through the packed tier.
// Pre-packing a weight matrix (PackB) and calling MatMulPackedRows is then
// bitwise-identical to MatMul on the unpacked operand — the caching
// predicate the compiled serving twins and the training-side epoch pack
// cache share. Below the threshold the legacy kernels win (and have
// golden files against their bits), so callers must not pre-pack. The same
// predicate routes an a·bᵀ product (b n×k, the input gradient dy·Wᵀ): it is
// by definition MatMul(a, bᵀ), which PackBT(b) panels give where ShouldPack
// holds and MatMulBiasRows on the transpose gives where it does not.
func ShouldPack(k, n int) bool { return usePacked(k, n) }

// PackWidth reports the current f64 panel width NR. A PackedB whose NR
// differs (packed on the other side of the pure-Go boundary: both SIMD
// rungs pack 8 columns) must be re-packed before the next
// MatMulPackedRows; long-lived caches validate against this.
func PackWidth() int { return packNR() }

// PackedB is a B operand packed for the f64 GEMM tier: full NR-wide
// panels plus column strips for the N mod NR remainder.
type PackedB struct {
	K, N, NR int
	panels   []float64 // (N/NR) panels of K×NR, k-major
	tail     []float64 // (N mod NR) column strips of K
	// trans marks an operand packed from its transpose (PackBT), which
	// Repack packs the same way.
	trans bool
}

func (p *PackedB) sizeFor(k, n, nr int) {
	p.K, p.N, p.NR = k, n, nr
	np := n / nr
	needP := np * k * nr
	needT := (n - np*nr) * k
	if cap(p.panels) < needP {
		p.panels = make([]float64, needP)
	}
	p.panels = p.panels[:needP]
	if cap(p.tail) < needT {
		p.tail = make([]float64, needT)
	}
	p.tail = p.tail[:needT]
}

// packFrom fills the panels from a K×N row-major source.
func (p *PackedB) packFrom(b *Matrix) {
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

// packFromT fills the panels from the TRANSPOSE of an N×K row-major
// source (the a·bᵀ operand): packed column j is source row j.
func (p *PackedB) packFromT(b *Matrix) {
	k, n, nr := p.K, p.N, p.NR
	np := n / nr
	for pn := 0; pn < np; pn++ {
		dst := p.panels[pn*k*nr : (pn+1)*k*nr]
		for jr := 0; jr < nr; jr++ {
			row := b.Data[(pn*nr+jr)*k : (pn*nr+jr+1)*k]
			for kk, v := range row {
				dst[kk*nr+jr] = v
			}
		}
	}
	for jt := 0; jt < n-np*nr; jt++ {
		copy(p.tail[jt*k:(jt+1)*k], b.Data[(np*nr+jt)*k:(np*nr+jt+1)*k])
	}
}

// PackB packs b (K×N) for reuse across MatMulPackedRows calls — the
// pack-once form for weight matrices that are multiplied many times
// (serving engines pack at compile time). The panel width is the current
// kernel tier's, so a PackedB must not outlive a toggle that changes it.
func PackB(b *Matrix) *PackedB {
	p := &PackedB{}
	p.sizeFor(b.Rows, b.Cols, packNR())
	p.packFrom(b)
	return p
}

// PackBT packs the TRANSPOSE of b (N×K row-major) as the K×N operand of
// dst = a·bᵀ — the input-gradient product, whose weight matrix is then
// packed once per parameter version instead of once per call. Callers
// pack only where ShouldPack(K, N) holds; MatMulPackedRows on the panels is
// then bitwise MatMul(a, bᵀ).
func PackBT(b *Matrix) *PackedB {
	p := &PackedB{trans: true}
	p.sizeFor(b.Cols, b.Rows, packNR())
	p.packFromT(b)
	return p
}

// Repack refreshes the packed contents from b, which must have the shape
// of the matrix the PackedB was built from.
func (p *PackedB) Repack(b *Matrix) {
	k, n := b.Rows, b.Cols
	if p.trans {
		k, n = n, k
	}
	if k != p.K || n != p.N {
		panic(fmt.Sprintf("tensor: Repack shape %dx%d, packed for %dx%d", k, n, p.K, p.N))
	}
	if p.trans {
		p.packFromT(b)
	} else {
		p.packFrom(b)
	}
}

// packScratch pools per-call pack buffers (activation-side operands and
// training weights are re-packed per call; the buffers grow in place and
// recycle, so steady state performs no heap allocation).
var packScratch = sync.Pool{New: func() any { return new(PackedB) }}

func getPackScratch(k, n, nr int) *PackedB {
	p := packScratch.Get().(*PackedB)
	p.sizeFor(k, n, nr)
	return p
}

func putPackScratch(p *PackedB) { packScratch.Put(p) }

// PackedB32 is the float32 twin of PackedB (panel width packNR32).
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
