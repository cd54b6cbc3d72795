package backend

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/gogen"
	"repro/internal/kernel"
	"repro/internal/store"
)

// kernelModule writes the kernel package an emitted program imports
// (gogen.KernelPath) into dir as a module of its own, from the source
// embedded in this binary (kernel.Source), and returns the module's
// directory: dir/kernel-<the first 16 digits of gogen.KernelSum>. The
// go tool builds it into its build cache when it lists the importcfg
// there. go.mod is written last: a module directory with one is
// complete.
func kernelModule(dir string) (string, error) {
	mod := filepath.Join(dir, "kernel-"+gogen.KernelSum()[:16])
	if _, err := os.Stat(filepath.Join(mod, "go.mod")); err == nil {
		return mod, nil
	}
	files, err := kernel.Source.ReadDir(".")
	if err == nil {
		err = os.MkdirAll(mod, 0o755)
	}
	for _, f := range files {
		if err != nil {
			break
		}
		var b []byte
		if b, err = kernel.Source.ReadFile(f.Name()); err == nil {
			err = store.AtomicWrite(filepath.Join(mod, f.Name()), b)
		}
	}
	if err == nil {
		err = store.AtomicWrite(filepath.Join(mod, "go.mod"), []byte("module "+gogen.KernelPath+"\n\ngo 1.22\n"))
	}
	if err != nil {
		return "", fmt.Errorf("backend: kernel module: %w", err)
	}
	return mod, nil
}

// kernelDir is where importcfg writes the kernel module: the default
// store's directory (DefaultDir), whichever store builds. The go tool
// keys a package's build on its directory, so a module written into
// each store would be compiled again for every new store; one
// directory per user builds it once. A store's own directory dir serves
// when the default one cannot be made.
func kernelDir(dir string) string {
	if d := DefaultDir(); os.MkdirAll(d, 0o755) == nil {
		return d
	}
	return dir
}

// WriteProgramModule makes dir the main module of an emitted program
// that is built with go build rather than through a store (the -race
// and -d=checkptr test builds, cross builds): a go.mod that requires
// the kernel package and replaces it with the module kernelModule
// writes under dir.
func WriteProgramModule(dir string) error {
	mod, err := kernelModule(dir)
	if err != nil {
		return err
	}
	gomod := fmt.Sprintf("module zplprogram\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %[1]s => ./%s\n", gogen.KernelPath, filepath.Base(mod))
	return os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644)
}
