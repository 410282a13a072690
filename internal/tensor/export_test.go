package tensor

// The kernel-tier hook for this directory's external tests, which
// exercise the packages built on the tier: SetKernelTier can only lower
// the tier (see setKernelTier) and returns the previous one.
type KernelTier = kernelTier

const (
	TierGo     = tierGo
	TierAVX2   = tierAVX2
	TierAVX512 = tierAVX512
)

var SetKernelTier = setKernelTier

// CPUTier is the highest rung this machine runs.
func CPUTier() KernelTier { return cpuTier }

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
