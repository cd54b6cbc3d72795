package vm

import "repro/internal/lir"

// StripWidth is the production strip width.
const StripWidth = stripWidth

// NewWidth is New (sh == nil) or NewShard at an explicit strip width.
// The repository's test programs have extents of at most a few dozen,
// so at the production width no test would cross a strip boundary; the
// width differential runs every case at several widths through this
// hook. It exists in the test binary only: the width is not an option.
func NewWidth(p *lir.Program, opt Options, sh Shard, width int) (*Machine, error) {
	return build(p, opt, sh, width)
}
