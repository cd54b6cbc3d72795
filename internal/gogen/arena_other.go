//go:build !linux

package gogen

import (
	"fmt"
	"strings"
)

// arenaMap emits the arena of a host other than Linux: one make, so
// the program still allocates once however many arrays it has.
func (g *gen) arenaMap(out *strings.Builder, words int) {
	fmt.Fprintf(out, "var zaM_arena = make([]float64, %d)\n\n", words)
}
