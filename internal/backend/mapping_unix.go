//go:build unix

package backend

import (
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// newMapping returns a file of size bytes to share with a worker as its
// state: an anonymous memory file on Linux, else an unlinked temporary
// file.
func newMapping(size int) (*os.File, error) {
	f := memfd()
	if f == nil {
		var err error
		if f, err = os.CreateTemp("", "zpl-state"); err != nil {
			return nil, err
		}
		os.Remove(f.Name())
	}
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// memfdCreate is memfd_create(2)'s system call number, which package
// syscall names on some architectures only.
var memfdCreate = map[string]uintptr{"386": 356, "amd64": 319, "arm": 385, "arm64": 279,
	"loong64": 279, "ppc64": 360, "ppc64le": 360, "riscv64": 279, "s390x": 350}[runtime.GOARCH]

// memfd returns a new close-on-exec memory file, or nil where there is
// none.
func memfd() *os.File {
	if runtime.GOOS != "linux" || memfdCreate == 0 {
		return nil
	}
	name, _ := syscall.BytePtrFromString("zpl-state")
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(memfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
	if errno != 0 {
		return nil
	}
	return os.NewFile(fd, "zpl-state")
}

// mapShared maps size bytes of f read-write and shared: what the worker
// stores, this process sees.
func mapShared(f *os.File, size int) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func unmap(mem []byte) error {
	if mem == nil {
		return nil
	}
	return syscall.Munmap(mem)
}
