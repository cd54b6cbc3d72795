package absint

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sema"
)

func TestIntervalJoin(t *testing.T) {
	cases := []struct {
		name string
		a, b Interval
		want Interval
	}{
		{"disjoint", Range(1, 3), Range(7, 9), Range(1, 9)},
		{"overlap", Range(1, 5), Range(3, 9), Range(1, 9)},
		{"nested", Range(1, 10), Range(4, 5), Range(1, 10)},
		{"empty-left", EmptyInterval(), Range(2, 4), Range(2, 4)},
		{"empty-right", Range(2, 4), EmptyInterval(), Range(2, 4)},
		{"empty-empty", EmptyInterval(), EmptyInterval(), EmptyInterval()},
		{"top-absorbs", Range(NegInf, Inf), Range(0, 1), Range(NegInf, Inf)},
		{"const-const", ConstInterval(5), ConstInterval(-5), Range(-5, 5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.a.Join(c.b); got != c.want {
				t.Errorf("%s ⊔ %s = %s, want %s", c.a, c.b, got, c.want)
			}
			if got := c.b.Join(c.a); got != c.want {
				t.Errorf("join not commutative: %s ⊔ %s = %s, want %s", c.b, c.a, got, c.want)
			}
		})
	}
}

func TestIntervalMeet(t *testing.T) {
	cases := []struct {
		name string
		a, b Interval
		want Interval
	}{
		{"overlap", Range(1, 5), Range(3, 9), Range(3, 5)},
		{"disjoint-empty", Range(1, 3), Range(7, 9), EmptyInterval()},
		{"touching", Range(1, 3), Range(3, 9), ConstInterval(3)},
		{"nested", Range(1, 10), Range(4, 5), Range(4, 5)},
		{"empty-propagates", EmptyInterval(), Range(NegInf, Inf), EmptyInterval()},
		{"top-identity", Range(NegInf, Inf), Range(-2, 2), Range(-2, 2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.a.Meet(c.b); got != c.want {
				t.Errorf("%s ⊓ %s = %s, want %s", c.a, c.b, got, c.want)
			}
		})
	}
}

// TestIntervalArithmeticSaturation covers the arithmetic the flat-offset
// clause is built from: a hull shifted by minus the allocation's lower
// bound (sub), its ends scaled by a stride (mul, on satMul), summed.
func TestIntervalArithmeticSaturation(t *testing.T) {
	big := int64(math.MaxInt64 - 1)
	cases := []struct {
		name string
		got  Interval
		want Interval
	}{
		{"add", Range(1, 2).Add(Range(10, 20)), Range(11, 22)},
		{"add-overflow-hi", ConstInterval(big).Add(ConstInterval(big)), ConstInterval(Inf)},
		{"add-overflow-lo", ConstInterval(-big).Add(ConstInterval(-big)), ConstInterval(NegInf)},
		{"add-inf-sticky", Range(0, Inf).Add(ConstInterval(-5)), Range(-5, Inf)},
		{"sub", Range(10, 20).AddConst(-2), Range(8, 18)},
		{"sub-neginf-sticky", Range(NegInf, 0).AddConst(-1), Range(NegInf, -1)},
		{"mul", Range(satMul(-2, 5), satMul(3, 5)), Range(-10, 15)},
		{"mul-overflow", ConstInterval(satMul(big, 4)), ConstInterval(Inf)},
		{"mul-overflow-neg", ConstInterval(satMul(big, -4)), ConstInterval(NegInf)},
		{"mul-zero-inf", ConstInterval(satMul(0, Inf)), ConstInterval(0)},
		{"add-empty-propagates", EmptyInterval().Add(Range(1, 2)), EmptyInterval()},
		{"sub-empty-propagates", EmptyInterval().AddConst(-1), EmptyInterval()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.got != c.want {
				t.Errorf("got %s, want %s", c.got, c.want)
			}
		})
	}
}

func TestIntervalContains(t *testing.T) {
	if !Range(0, 10).Contains(Range(2, 8)) {
		t.Error("[0,10] should contain [2,8]")
	}
	if Range(0, 10).Contains(Range(2, 11)) {
		t.Error("[0,10] should not contain [2,11]")
	}
	if !Range(0, 10).Contains(EmptyInterval()) {
		t.Error("anything contains empty")
	}
	if EmptyInterval().Contains(ConstInterval(0)) {
		t.Error("empty contains nothing non-empty")
	}
}

// TestFlatOffsetMatchesEnumeration holds the closed form of Reason's
// flat-offset clause to the offsets themselves. For random hulls of rank
// 1–3 inside allocations with negative lower bounds (single-index
// dimensions included, innermost and all of them), the interval must be
// the least and greatest row-major offset any index of the hull reaches,
// and the congruence the strongest one every such offset satisfies: the
// gcd of their distances from the first.
func TestFlatOffsetMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	branches := map[string]int{}
	for n := 0; n < 3000; n++ {
		rank := 1 + rng.Intn(3)
		alloc := &sema.Region{Lo: make([]int, rank), Hi: make([]int, rank)}
		hull := make([]Interval, rank)
		for d := range hull {
			alloc.Lo[d] = -4 + rng.Intn(4)
			alloc.Hi[d] = alloc.Lo[d] + rng.Intn(5)
			lo := alloc.Lo[d] + rng.Intn(alloc.Extent(d))
			hi := lo
			if rng.Intn(3) > 0 {
				hi += rng.Intn(alloc.Hi[d] - lo + 1)
			}
			hull[d] = Range(int64(lo), int64(hi))
		}

		// Every index of the hull, innermost dimension fastest: the first
		// offset is the least, so every distance from it is non-negative.
		var offs []int64
		idx := make([]int64, rank)
		for d := range idx {
			idx[d] = hull[d].Lo
		}
		for {
			off, stride := int64(0), int64(1)
			for d := rank - 1; d >= 0; d-- {
				off += (idx[d] - int64(alloc.Lo[d])) * stride
				stride *= int64(alloc.Extent(d))
			}
			offs = append(offs, off)
			d := rank - 1
			for ; d >= 0 && idx[d] == hull[d].Hi; d-- {
				idx[d] = hull[d].Lo
			}
			if d < 0 {
				break
			}
			idx[d]++
		}
		lo, hi, m := offs[0], offs[0], int64(0)
		for _, o := range offs {
			lo, hi, m = min(lo, o), max(hi, o), gcd(m, o-offs[0])
		}
		want, branch := fmt.Sprintf("=%d", offs[0]), "=c"
		switch {
		case m == 1:
			want, branch = "any", "any"
		case m > 1:
			want, branch = fmt.Sprintf("%d mod %d", offs[0]%m, m), "r mod m"
		}
		branches[branch]++

		gotRange, got := flatOffset(hull, alloc)
		if gotRange != Range(lo, hi) || got != want {
			t.Fatalf("hull %s in allocation %s: flat offset %s stride %s, enumeration gives %s stride %s",
				hullString(hull), hullString(regionHull(alloc)), gotRange, got, Range(lo, hi), want)
		}
	}
	for _, b := range []string{"=c", "any", "r mod m"} {
		if branches[b] < 100 {
			t.Errorf("only %d of the random hulls render %q: %v", branches[b], b, branches)
		}
	}
}
