package absint

import (
	"math"
	"testing"
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
		{"sub", Range(10, 20).Sub(Range(1, 2)), Range(8, 19)},
		{"sub-neginf-sticky", Range(NegInf, 0).Sub(ConstInterval(1)), Range(NegInf, -1)},
		{"neg", Range(-3, 7).Neg(), Range(-7, 3)},
		{"neg-mininit", ConstInterval(NegInf).Neg(), ConstInterval(Inf)},
		{"mul", Range(-2, 3).Mul(Range(4, 5)), Range(-10, 15)},
		{"mul-overflow", ConstInterval(big).Mul(ConstInterval(4)), ConstInterval(Inf)},
		{"mul-overflow-neg", ConstInterval(big).Mul(ConstInterval(-4)), ConstInterval(NegInf)},
		{"mul-zero-inf", ConstInterval(0).Mul(Range(NegInf, Inf)), ConstInterval(0)},
		{"add-empty-propagates", EmptyInterval().Add(Range(1, 2)), EmptyInterval()},
		{"sub-empty-propagates", Range(1, 2).Sub(EmptyInterval()), EmptyInterval()},
		{"mul-empty-propagates", EmptyInterval().Mul(Range(NegInf, Inf)), EmptyInterval()},
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

func TestStrideArithmetic(t *testing.T) {
	cases := []struct {
		name string
		got  Stride
		want Stride
	}{
		{"add-const", ConstStride(3).Add(ConstStride(4)), ConstStride(7)},
		{"add-shift", Congruent(8, 3).Add(ConstStride(10)), Congruent(8, 5)},
		{"add-congr", Congruent(6, 1).Add(Congruent(4, 3)), Congruent(2, 0)},
		{"neg", Congruent(8, 3).Neg(), Congruent(8, 5)},
		{"sub", Congruent(8, 3).Sub(ConstStride(4)), Congruent(8, 7)},
		{"mul-const", Congruent(4, 1).Mul(ConstStride(3)), Congruent(12, 3)},
		{"mul-congr", Congruent(4, 0).Mul(Congruent(6, 0)), Congruent(24, 0)},
		{"mul-overflow-top", ConstStride(math.MaxInt64 / 2).Mul(ConstStride(4)), TopStride()},
		{"bot-propagates", BotStride().Add(ConstStride(1)), BotStride()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.got != c.want {
				t.Errorf("got %s, want %s", c.got, c.want)
			}
		})
	}
}

func TestValueReducedProduct(t *testing.T) {
	// A singleton interval pins the congruence.
	v := Value{I: ConstInterval(7), S: TopStride()}.reduce()
	if c, ok := v.S.IsConst(); !ok || c != 7 {
		t.Errorf("reduce should pin stride to constant 7, got %s", v.S)
	}
	// A contradiction between components empties the value.
	v = Value{I: ConstInterval(7), S: Congruent(2, 0)}.reduce()
	if !v.IsBottom() {
		t.Errorf("7 ∧ (0 mod 2) should be bottom, got %+v", v)
	}
	// Bottom propagates through arithmetic.
	b := v.Add(ConstValue(1))
	if !b.IsBottom() {
		t.Errorf("bottom + 1 should stay bottom, got %+v", b)
	}
}
