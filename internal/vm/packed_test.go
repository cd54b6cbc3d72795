package vm_test

// The packed strip kernels at the program level: every benchmark and
// heat, at the ladder's two ends and at every test width, print the same
// bytes and end with the same array bits whether the machine runs the
// packed kernels or the Go loops (DESIGN.md §32). The kernels
// themselves are compared bit for bit in internal/kernel; this pins that
// every operator a program compiles gets kernels that agree.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/vm"
)

func TestPackedProgramsIdentical(t *testing.T) {
	if !vm.PackedOnHost() {
		t.Skip("this host runs the Go loops only")
	}
	heat, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	type prog struct {
		name, src string
		configs   map[string]int64
	}
	progs := []prog{{"heat", string(heat), nil}}
	for _, b := range programs.All() {
		progs = append(progs, prog{b.Name, b.Source, map[string]int64{b.SizeConfig: b.DefaultSize}})
	}
	for _, p := range progs {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			c := mustCompile(t, p.src, driver.Options{Level: lvl, Configs: p.configs})
			var first outcome
			for i, w := range widths {
				for _, on := range []bool{false, true} {
					restore := vm.SetPacked(on)
					o := runAt(t, c, w)
					restore()
					if i == 0 && !on {
						first = o
						continue
					}
					if d := first.diff(o); d != "" {
						t.Errorf("%s/%s: width %d packed=%v vs width %d Go loops: %s", p.name, lvl, w, on, widths[0], d)
					}
				}
			}
		}
	}
}

// fusedMultiplyAdd matches the amd64 fused multiply-add mnemonics in
// the compiler's and the assembler's listings.
var fusedMultiplyAdd = regexp.MustCompile(`\sVFN?M(ADD|SUB)\w*\s`)

// TestVMNoFMA lists every instruction of internal/vm and of
// internal/kernel, whose kernels it runs, compiled Go and assembly
// alike, and fails on a fused multiply-add: the VM rounds every
// product, as the reference and the emitted Go do. The packed kernels
// and their packed instructions must be in the listing, so the check
// cannot pass on code it did not see. The listing is the toolchain's
// own (-gcflags=-S, -asmflags=-S, which list only the packages named),
// not go tool objdump's: objdump's x86 decoder has no VEX tables, so it
// prints neither VADDPD nor VFMADD231SD.
func TestVMNoFMA(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the packed kernels are amd64's")
	}
	listing, err := exec.Command("go", "build", "-gcflags=-S", "-asmflags=-S", "-o", os.DevNull, ".", "../kernel").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-S: %v\n%s", err, listing)
	}
	for _, line := range strings.Split(string(listing), "\n") {
		if fusedMultiplyAdd.MatchString(line) {
			t.Errorf("fused multiply-add in the listing: %s", strings.TrimSpace(line))
		}
	}
	for _, sym := range []string{"vm.(*Machine).apply2", "kernel.addVV"} {
		if !strings.Contains(string(listing), "\tTEXT\trepro/internal/"+sym+"(SB), ") {
			t.Errorf("%s missing from the listing", sym)
		}
	}
	for _, sym := range []string{"vaddVV", "vaddVU", "vsubVV", "vsubVU", "vsubUV", "vmulVV", "vmulVU", "vdivVV", "vdivVU", "vdivUV", "vsqrt", "vneg",
		"vmaxVV", "vmaxVU", "vminVV", "vminVU", "vmaxFold", "vminFold", "vabs"} {
		if !strings.Contains(string(listing), fmt.Sprintf("\tTEXT\trepro/internal/kernel.%s(SB), NOSPLIT", sym)) {
			t.Errorf("packed kernel %s missing from the listing", sym)
		}
	}
	for _, op := range []string{"VADDPD", "VSUBPD", "VMULPD", "VDIVPD", "VSQRTPD", "VXORPD",
		"VMAXPD", "VMINPD", "VANDPD", "VCMPPD"} {
		if !strings.Contains(string(listing), "\t"+op+"\t") {
			t.Errorf("no %s in the listing", op)
		}
	}
}
