//go:build !amd64

package vm

// Without packed kernels every machine runs the Go loops.
const packed = false

var packedStrips = goStrips
