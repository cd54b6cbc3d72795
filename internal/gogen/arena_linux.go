//go:build linux

package gogen

import (
	"fmt"
	"strings"
)

// arenaMap emits the Linux half of the arena: one anonymous private
// mapping, which the garbage collector never scans and whose pages the
// kernel first zeroes when the program writes them. An arena of at
// least a huge page is mapped a huge page over, aligned up to a 2 MiB
// boundary and advised MADV_HUGEPAGE; a host without transparent huge
// pages refuses the advice and the arena runs on small pages. A refused
// mapping exits 2 with a message on stderr, as a make the runtime
// cannot satisfy does — it is not a trap of the program.
func (g *gen) arenaMap(out *strings.Builder, words int) {
	g.useSyscall, g.useUnsafe = true, true
	fmt.Fprintf(out, "var zaM_arena = zaM_map(%d)\n\nfunc zaM_map(n int) []float64 {\n", words)
	length := "8*n"
	if 8*words >= hugeBytes {
		fmt.Fprintf(out, "\tconst huge = %d\n", hugeBytes)
		length = "8*n + huge"
	}
	fmt.Fprintf(out, "\tmem, err := syscall.Mmap(-1, 0, %s, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)\n", length)
	out.WriteString("\tif err != nil {\n\t\tfmt.Fprintln(os.Stderr, \"za arena:\", err)\n\t\tos.Exit(2)\n\t}\n")
	if 8*words >= hugeBytes {
		out.WriteString("\tskip := -int(uintptr(unsafe.Pointer(&mem[0]))) & (huge - 1)\n\tmem = mem[skip : skip+8*n]\n" +
			"\tsyscall.Madvise(mem, syscall.MADV_HUGEPAGE) // refused without transparent huge pages\n")
	}
	out.WriteString("\treturn unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), n)\n}\n\n")
}
