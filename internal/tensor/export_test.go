package tensor

// SetSIMDGEMM exposes the kernel-tier toggle to this directory's external
// tests, which exercise the packages built on the tier.
var SetSIMDGEMM = setSIMDGEMM
