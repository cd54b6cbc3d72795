package dist

import (
	"testing"
	"testing/quick"

	"repro/internal/sema"
	"repro/internal/soak"
)

func TestGridFactorization(t *testing.T) {
	cases := []struct {
		p, rank int
		want    []int
	}{
		{1, 2, []int{1, 1}},
		{4, 2, []int{2, 2}},
		{16, 2, []int{4, 4}},
		{64, 2, []int{8, 8}},
		{8, 2, []int{4, 2}},
		{6, 2, []int{3, 2}},
		{5, 1, []int{5}},
		{12, 3, []int{3, 2, 2}},
	}
	for _, c := range cases {
		g, err := NewGrid(c.p, c.rank)
		if err != nil {
			t.Fatalf("NewGrid(%d,%d): %v", c.p, c.rank, err)
		}
		prod := 1
		for _, d := range g.Dims {
			prod *= d
		}
		if prod != c.p {
			t.Errorf("grid %v does not multiply to %d", g.Dims, c.p)
		}
		for i, d := range c.want {
			if g.Dims[i] != d {
				t.Errorf("NewGrid(%d,%d) = %v, want %v", c.p, c.rank, g.Dims, c.want)
				break
			}
		}
	}
	if _, err := NewGrid(0, 2); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestCoordProcRoundTrip(t *testing.T) {
	g, _ := NewGrid(12, 2)
	for p := 0; p < 12; p++ {
		if got := g.Proc(g.Coord(p)); got != p {
			t.Errorf("Proc(Coord(%d)) = %d", p, got)
		}
	}
	if g.Proc([]int{99, 0}) != -1 {
		t.Error("out-of-grid coord accepted")
	}
}

func TestBlockRangePartition(t *testing.T) {
	// Blocks must tile the range exactly with sizes differing by <= 1.
	lo, hi, parts := 1, 17, 4
	next := lo
	sizes := map[int]bool{}
	for i := 0; i < parts; i++ {
		a, b := BlockRange(lo, hi, parts, i)
		if a != next {
			t.Errorf("block %d starts at %d, want %d", i, a, next)
		}
		sizes[b-a+1] = true
		next = b + 1
	}
	if next != hi+1 {
		t.Errorf("blocks end at %d, want %d", next-1, hi)
	}
	if len(sizes) > 2 {
		t.Errorf("block sizes vary too much: %v", sizes)
	}
}

func TestDecompOwnership(t *testing.T) {
	anchor := &sema.Region{Lo: []int{1, 1}, Hi: []int{16, 16}}
	d, err := NewDecomp(4, anchor)
	if err != nil {
		t.Fatal(err)
	}
	// Every anchor index is owned by exactly the processor whose
	// block contains it.
	for i := 1; i <= 16; i++ {
		for j := 1; j <= 16; j++ {
			owner := d.Owner([]int{i, j})
			if owner < 0 || owner >= 4 {
				t.Fatalf("Owner(%d,%d) = %d", i, j, owner)
			}
			blk := d.Block(owner)
			if i < blk.Lo[0] || i > blk.Hi[0] || j < blk.Lo[1] || j > blk.Hi[1] {
				t.Fatalf("index (%d,%d) not in owner %d's block %s", i, j, owner, blk)
			}
		}
	}
	if d.Owner([]int{0, 5}) != -1 || d.Owner([]int{5, 17}) != -1 {
		t.Error("outside indices must have no owner")
	}
}

// Property: blocks partition the anchor (disjoint union).
func TestQuickBlocksPartition(t *testing.T) {
	f := func(pRaw, nRaw uint8) bool {
		p := int(pRaw%16) + 1
		n := int(nRaw%20) + p // ensure extent >= grid
		anchor := &sema.Region{Lo: []int{1, 1}, Hi: []int{n, n}}
		d, err := NewDecomp(p, anchor)
		if err != nil {
			return false
		}
		count := 0
		for proc := 0; proc < p; proc++ {
			b := d.Block(proc)
			if Empty(b) {
				continue
			}
			count += b.Size()
			// Every element of the block reports proc as owner.
			if d.Owner([]int{b.Lo[0], b.Lo[1]}) != proc {
				return false
			}
			if d.Owner([]int{b.Hi[0], b.Hi[1]}) != proc {
				return false
			}
		}
		return count == anchor.Size()
	}
	if err := quick.Check(f, soak.Config(t, 50, 3)); err != nil {
		t.Error(err)
	}
}

func TestIntersectAndEmpty(t *testing.T) {
	a := &sema.Region{Lo: []int{1, 1}, Hi: []int{8, 8}}
	b := &sema.Region{Lo: []int{5, 0}, Hi: []int{12, 3}}
	x := Intersect(a, b)
	if x.Lo[0] != 5 || x.Hi[0] != 8 || x.Lo[1] != 1 || x.Hi[1] != 3 {
		t.Errorf("Intersect = %s", x)
	}
	if Empty(x) {
		t.Error("nonempty intersection reported empty")
	}
	c := &sema.Region{Lo: []int{9, 1}, Hi: []int{12, 8}}
	if !Empty(Intersect(a, c)) {
		t.Error("disjoint intersection not empty")
	}
}

func TestRankOneDecomp(t *testing.T) {
	anchor := &sema.Region{Lo: []int{1}, Hi: []int{100}}
	d, err := NewDecomp(7, anchor)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < 7; p++ {
		b := d.Block(p)
		total += b.Size()
	}
	if total != 100 {
		t.Errorf("blocks cover %d of 100", total)
	}
	if d.Owner([]int{1}) != 0 || d.Owner([]int{100}) != 6 {
		t.Errorf("edge ownership wrong: %d %d", d.Owner([]int{1}), d.Owner([]int{100}))
	}
}

func TestMoreProcsThanElements(t *testing.T) {
	anchor := &sema.Region{Lo: []int{1}, Hi: []int{3}}
	d, err := NewDecomp(5, anchor)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for p := 0; p < 5; p++ {
		if !Empty(d.Block(p)) {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Errorf("%d non-empty blocks for 3 elements", nonEmpty)
	}
}
