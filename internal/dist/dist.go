// Package dist provides processor grids and block decompositions for
// distributed execution: every dimension of every array is block
// distributed over a near-square processor grid, the paper's standing
// assumption ("we have assumed that all dimensions of all arrays are
// distributed").
package dist

import (
	"fmt"

	"repro/internal/sema"
)

// Grid arranges P processors over rank dimensions, as square as the
// factorization allows (64 over rank 2 → 8×8; 8 → 4×2).
type Grid struct {
	P    int
	Dims []int // processors per dimension; product == P
}

// NewGrid factors p over rank dimensions. p must be positive; rank in
// [1, 4]. The factorization greedily assigns the largest factors to
// the earliest dimensions while keeping the grid as square as possible.
func NewGrid(p, rank int) (Grid, error) {
	if p <= 0 {
		return Grid{}, fmt.Errorf("dist: nonpositive processor count %d", p)
	}
	if rank < 1 || rank > 4 {
		return Grid{}, fmt.Errorf("dist: unsupported rank %d", rank)
	}
	return Grid{P: p, Dims: factorSquare(p, rank)}, nil
}

// factorSquare splits p into rank factors as evenly as possible.
func factorSquare(p, rank int) []int {
	dims := make([]int, rank)
	for i := range dims {
		dims[i] = 1
	}
	// Extract prime factors, largest first, multiply into the
	// smallest dimension.
	var primes []int
	rem := p
	for f := 2; f*f <= rem; f++ {
		for rem%f == 0 {
			primes = append(primes, f)
			rem /= f
		}
	}
	if rem > 1 {
		primes = append(primes, rem)
	}
	// Multiply from largest to smallest into the least-loaded dim.
	for i := len(primes) - 1; i >= 0; i-- {
		min := 0
		for d := 1; d < rank; d++ {
			if dims[d] < dims[min] {
				min = d
			}
		}
		dims[min] *= primes[i]
	}
	return dims
}

// Coord returns processor proc's grid coordinates (row-major rank).
func (g Grid) Coord(proc int) []int {
	c := make([]int, len(g.Dims))
	for d := len(g.Dims) - 1; d >= 0; d-- {
		c[d] = proc % g.Dims[d]
		proc /= g.Dims[d]
	}
	return c
}

// Proc returns the processor at the given coordinates, or -1 when a
// coordinate is out of the grid.
func (g Grid) Proc(coord []int) int {
	p := 0
	for d, c := range coord {
		if c < 0 || c >= g.Dims[d] {
			return -1
		}
		p = p*g.Dims[d] + c
	}
	return p
}

// BlockRange splits the inclusive range [lo, hi] into parts contiguous
// blocks and returns block idx's bounds. Remainder elements go to the
// leading blocks, so sizes differ by at most one. Empty blocks return
// lo > hi.
func BlockRange(lo, hi, parts, idx int) (int, int) {
	n := hi - lo + 1
	if n < 0 || parts <= 0 || idx < 0 || idx >= parts {
		return 0, -1
	}
	base := n / parts
	extra := n % parts
	start := lo + idx*base + min(idx, extra)
	size := base
	if idx < extra {
		size++
	}
	return start, start + size - 1
}

// Decomp is a block decomposition of an anchor index space over a grid.
// Ownership of every index is defined by the anchor, so arrays and
// statement regions of the same rank partition consistently.
type Decomp struct {
	Grid   Grid
	Anchor *sema.Region
}

// NewDecomp builds a decomposition of anchor over p processors.
func NewDecomp(p int, anchor *sema.Region) (*Decomp, error) {
	g, err := NewGrid(p, anchor.Rank())
	if err != nil {
		return nil, err
	}
	return &Decomp{Grid: g, Anchor: anchor}, nil
}

// Block returns processor proc's owned sub-rectangle of the anchor.
// Some dimensions may be empty (lo > hi) when the grid outnumbers the
// extent.
func (d *Decomp) Block(proc int) *sema.Region {
	coord := d.Grid.Coord(proc)
	lo := make([]int, d.Anchor.Rank())
	hi := make([]int, d.Anchor.Rank())
	for k := 0; k < d.Anchor.Rank(); k++ {
		lo[k], hi[k] = BlockRange(d.Anchor.Lo[k], d.Anchor.Hi[k], d.Grid.Dims[k], coord[k])
	}
	return &sema.Region{Lo: lo, Hi: hi}
}

// Owner returns the processor owning index idx, or -1 when idx lies
// outside the anchor.
func (d *Decomp) Owner(idx []int) int {
	coord := make([]int, d.Anchor.Rank())
	for k := 0; k < d.Anchor.Rank(); k++ {
		if idx[k] < d.Anchor.Lo[k] || idx[k] > d.Anchor.Hi[k] {
			return -1
		}
		// Invert BlockRange: find the block containing idx[k].
		n := d.Anchor.Extent(k)
		parts := d.Grid.Dims[k]
		base := n / parts
		extra := n % parts
		off := idx[k] - d.Anchor.Lo[k]
		// The first `extra` blocks have size base+1.
		var b int
		if off < extra*(base+1) {
			if base+1 == 0 {
				return -1
			}
			b = off / (base + 1)
		} else {
			if base == 0 {
				return -1
			}
			b = extra + (off-extra*(base+1))/base
		}
		coord[k] = b
	}
	return d.Grid.Proc(coord)
}

// Intersect returns the intersection of two regions; empty dims yield
// lo > hi.
func Intersect(a, b *sema.Region) *sema.Region {
	lo := make([]int, a.Rank())
	hi := make([]int, a.Rank())
	for k := range lo {
		lo[k] = max(a.Lo[k], b.Lo[k])
		hi[k] = min(a.Hi[k], b.Hi[k])
	}
	return &sema.Region{Lo: lo, Hi: hi}
}

// Empty reports whether the region has an empty dimension.
func Empty(r *sema.Region) bool {
	for k := range r.Lo {
		if r.Lo[k] > r.Hi[k] {
			return true
		}
	}
	return false
}
