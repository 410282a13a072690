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
