package gogen

// SetPackedHost makes the emitter emit as on a host with (true) or
// without (false) the packed kernels, and returns the previous setting.
func SetPackedHost(on bool) bool {
	was := packedHost
	packedHost = on
	return was
}
