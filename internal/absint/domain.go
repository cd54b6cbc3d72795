// Package absint is the bounds prover over the scalar Loop IR
// (internal/lir). It assigns every array read and write a verdict —
// ProvenSafe (with the interval derivation as evidence), ProvenUnsafe
// (definite out-of-bounds, a compile-time error), or Unknown — so the
// execution backends can drop bounds checks with a certificate instead
// of a hope.
//
// The proof is a containment check. A normalized array reference is
// [R] A@d with a static region R and a constant offset d (the paper's
// §2.1), so the index set of a site is the rectangle R+d (R met with the
// statement's guard) whatever the surrounding scalar code computes: one
// walk over the LIR records that rectangle per site and tests it against
// the array's allocation. No scalar is tracked, so there is no
// environment, fixpoint or widening; TestVerdictsIgnoreScalarFlow pins
// the invariant a language extension (dynamic regions, computed
// offsets) would break.
//
// Evidence is one interval per dimension, over int64 with saturating
// (±∞-sticky) arithmetic: MinInt64 and MaxInt64 act as -∞/+∞, and any
// overflowing operation saturates toward them, so a hull stays sound for
// arbitrarily large regions.
//
// The analysis keeps each site's verdict and the intervals behind it;
// the prose (Site.Reason) is a pure function of those fields, rendered
// when zpllint, zplcheck or a failed proof asks — its flat-offset clause
// included, which is computed from the hull and the allocation in closed
// form — and the fingerprint is hashed from the same fields without
// formatting them.
package absint

import (
	"math"
	"strconv"
)

// Inf and NegInf are the saturated "infinite" interval endpoints.
const (
	Inf    = math.MaxInt64
	NegInf = math.MinInt64
)

// ---------------------------------------------------------------------------
// Saturating int64 arithmetic

// satAdd adds with ±∞-sticky saturation: an infinite operand wins, and
// a finite overflow saturates toward the sign of the true sum.
func satAdd(a, b int64) int64 {
	switch {
	case a == Inf || b == Inf:
		return Inf
	case a == NegInf || b == NegInf:
		return NegInf
	}
	s := a + b
	switch {
	case a > 0 && b > 0 && s < a:
		return Inf
	case a < 0 && b < 0 && s > a:
		return NegInf
	}
	return s
}

// satMul multiplies with the same saturation discipline.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	if a == Inf || a == NegInf || b == Inf || b == NegInf {
		if neg {
			return NegInf
		}
		return Inf
	}
	p := a * b
	if p/b != a {
		if neg {
			return NegInf
		}
		return Inf
	}
	return p
}

// ---------------------------------------------------------------------------
// Interval domain

// Interval is a set of values bounded by [Lo, Hi] (inclusive), or the
// empty set. The zero Interval is the empty set (bottom).
type Interval struct {
	Lo, Hi int64
	// nonEmpty inverts the usual flag so the zero value is bottom —
	// empty intervals propagate through arithmetic by construction.
	nonEmpty bool
}

// EmptyInterval is the bottom element.
func EmptyInterval() Interval { return Interval{} }

// ConstInterval is the singleton [c, c].
func ConstInterval(c int64) Interval { return Interval{Lo: c, Hi: c, nonEmpty: true} }

// Range is [lo, hi]; an inverted pair yields the empty interval.
func Range(lo, hi int64) Interval {
	if lo > hi {
		return Interval{}
	}
	return Interval{Lo: lo, Hi: hi, nonEmpty: true}
}

// IsEmpty reports bottom.
func (i Interval) IsEmpty() bool { return !i.nonEmpty }

// Contains reports whether o ⊆ i.
func (i Interval) Contains(o Interval) bool {
	if o.IsEmpty() {
		return true
	}
	return i.nonEmpty && i.Lo <= o.Lo && o.Hi <= i.Hi
}

// Join is the interval hull (least upper bound).
func (i Interval) Join(o Interval) Interval {
	if i.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return i
	}
	return Interval{Lo: min(i.Lo, o.Lo), Hi: max(i.Hi, o.Hi), nonEmpty: true}
}

// Meet is interval intersection (greatest lower bound).
func (i Interval) Meet(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return Interval{}
	}
	return Range(max(i.Lo, o.Lo), min(i.Hi, o.Hi))
}

// Add is the sound interval sum; empty operands propagate.
func (i Interval) Add(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return Interval{}
	}
	return Interval{Lo: satAdd(i.Lo, o.Lo), Hi: satAdd(i.Hi, o.Hi), nonEmpty: true}
}

// AddConst shifts both bounds by c.
func (i Interval) AddConst(c int64) Interval { return i.Add(ConstInterval(c)) }

func (i Interval) String() string { return string(i.appendTo(nil)) }

// appendTo appends the text of String to b.
func (i Interval) appendTo(b []byte) []byte {
	if i.IsEmpty() {
		return append(b, "(empty)"...)
	}
	bound := func(v, inf int64, name string) {
		if v == inf {
			b = append(b, name...)
		} else {
			b = strconv.AppendInt(b, v, 10)
		}
	}
	b = append(b, '[')
	bound(i.Lo, NegInf, "-inf")
	b = append(b, ',')
	bound(i.Hi, Inf, "+inf")
	return append(b, ']')
}

// gcd of two non-negative integers; gcd(0, b) is b.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
