//go:build !amd64

package kernel

// Without packed kernels every entry runs its Go loops.
const hasPacked = false

var packedSets map[string]Kernels
