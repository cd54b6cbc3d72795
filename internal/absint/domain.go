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
// Evidence is kept in two small domains:
//
//   - intervals over int64 with saturating (±∞-sticky) arithmetic:
//     MinInt64 and MaxInt64 act as -∞/+∞, and any overflowing operation
//     saturates toward them, so a hull stays sound for arbitrarily large
//     regions;
//   - congruences ("strides"): value ≡ Rem (mod Mod), with Mod == 0
//     denoting the exact constant Rem and Mod == 1 the top element. The
//     flattened row-major offset of a proven site carries one beside its
//     interval (Site.FlatRange, Site.FlatStride).
//
// The analysis keeps each site's verdict and the intervals behind it;
// the prose (Site.Reason) is a pure function of those fields, rendered
// when zpllint, zplcheck or a failed proof asks, and the fingerprint is
// hashed from the same fields without formatting them.
package absint

import (
	"fmt"
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

// satNeg negates, mapping -∞ ↔ +∞ (MinInt64 has no int64 negation).
func satNeg(a int64) int64 {
	switch a {
	case NegInf:
		return Inf
	case Inf:
		return NegInf
	}
	return -a
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

func isFinite(a int64) bool { return a != Inf && a != NegInf }

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

// IsConst reports a singleton and returns its value.
func (i Interval) IsConst() (int64, bool) {
	if i.nonEmpty && i.Lo == i.Hi {
		return i.Lo, true
	}
	return 0, false
}

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
	return Interval{Lo: min64(i.Lo, o.Lo), Hi: max64(i.Hi, o.Hi), nonEmpty: true}
}

// Meet is interval intersection (greatest lower bound).
func (i Interval) Meet(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return Interval{}
	}
	return Range(max64(i.Lo, o.Lo), min64(i.Hi, o.Hi))
}

// Add is the sound interval sum; empty operands propagate.
func (i Interval) Add(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return Interval{}
	}
	return Interval{Lo: satAdd(i.Lo, o.Lo), Hi: satAdd(i.Hi, o.Hi), nonEmpty: true}
}

// Neg is the sound interval negation.
func (i Interval) Neg() Interval {
	if i.IsEmpty() {
		return i
	}
	return Interval{Lo: satNeg(i.Hi), Hi: satNeg(i.Lo), nonEmpty: true}
}

// Sub is i - o.
func (i Interval) Sub(o Interval) Interval { return i.Add(o.Neg()) }

// Mul is the sound interval product (min/max over endpoint products).
func (i Interval) Mul(o Interval) Interval {
	if i.IsEmpty() || o.IsEmpty() {
		return Interval{}
	}
	p := [4]int64{
		satMul(i.Lo, o.Lo), satMul(i.Lo, o.Hi),
		satMul(i.Hi, o.Lo), satMul(i.Hi, o.Hi),
	}
	lo, hi := p[0], p[0]
	for _, v := range p[1:] {
		lo, hi = min64(lo, v), max64(hi, v)
	}
	return Interval{Lo: lo, Hi: hi, nonEmpty: true}
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

// ---------------------------------------------------------------------------
// Stride (congruence) domain

// Stride is a congruence class: value ≡ Rem (mod Mod). Mod == 0 means
// the exact constant Rem; Mod == 1 is top (any value); Bot is the
// empty class. The zero Stride is the constant 0.
type Stride struct {
	Mod, Rem int64
	Bot      bool
}

// TopStride admits every value.
func TopStride() Stride { return Stride{Mod: 1} }

// BotStride is the empty congruence.
func BotStride() Stride { return Stride{Bot: true} }

// ConstStride is the exact constant c.
func ConstStride(c int64) Stride { return Stride{Rem: c} }

// Congruent is value ≡ rem (mod m), normalized to 0 ≤ Rem < Mod.
func Congruent(m, rem int64) Stride {
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return ConstStride(rem)
	}
	return Stride{Mod: m, Rem: mod(rem, m)}
}

// IsConst reports an exact constant and returns it.
func (s Stride) IsConst() (int64, bool) {
	if !s.Bot && s.Mod == 0 {
		return s.Rem, true
	}
	return 0, false
}

// ContainsPoint reports v ∈ s.
func (s Stride) ContainsPoint(v int64) bool {
	switch {
	case s.Bot:
		return false
	case s.Mod == 0:
		return v == s.Rem
	}
	return mod(v, s.Mod) == s.Rem
}

// Add is the congruence sum.
func (s Stride) Add(o Stride) Stride {
	if s.Bot || o.Bot {
		return BotStride()
	}
	if c1, ok := s.IsConst(); ok {
		if c2, ok := o.IsConst(); ok {
			return ConstStride(satConstOrTopAdd(c1, c2))
		}
		return Congruent(o.Mod, o.Rem+mod(c1, o.Mod))
	}
	if c2, ok := o.IsConst(); ok {
		return Congruent(s.Mod, s.Rem+mod(c2, s.Mod))
	}
	return Congruent(gcd(s.Mod, o.Mod), s.Rem+o.Rem)
}

// Neg negates the class.
func (s Stride) Neg() Stride {
	if s.Bot {
		return s
	}
	if c, ok := s.IsConst(); ok {
		if c == NegInf {
			return TopStride()
		}
		return ConstStride(-c)
	}
	return Congruent(s.Mod, -s.Rem)
}

// Sub is s - o.
func (s Stride) Sub(o Stride) Stride { return s.Add(o.Neg()) }

// Mul is the congruence product: for x ≡ a (m1), y ≡ b (m2),
// xy ≡ ab (mod gcd(a·m2, b·m1, m1·m2)). Any overflow widens to top.
func (s Stride) Mul(o Stride) Stride {
	if s.Bot || o.Bot {
		return BotStride()
	}
	c1, ok1 := s.IsConst()
	c2, ok2 := o.IsConst()
	switch {
	case ok1 && ok2:
		p := satMul(c1, c2)
		if !isFinite(p) {
			return TopStride()
		}
		return ConstStride(p)
	case ok1:
		return o.mulConst(c1)
	case ok2:
		return s.mulConst(c2)
	}
	t1, t2, t3 := satMul(s.Rem, o.Mod), satMul(o.Rem, s.Mod), satMul(s.Mod, o.Mod)
	r := satMul(s.Rem, o.Rem)
	if !isFinite(t1) || !isFinite(t2) || !isFinite(t3) || !isFinite(r) {
		return TopStride()
	}
	return Congruent(gcd(gcd(t1, t2), t3), r)
}

func (s Stride) mulConst(c int64) Stride {
	m, r := satMul(s.Mod, c), satMul(s.Rem, c)
	if !isFinite(m) || !isFinite(r) {
		return TopStride()
	}
	return Congruent(m, r)
}

func (s Stride) String() string {
	switch {
	case s.Bot:
		return "(bot)"
	case s.Mod == 0:
		return fmt.Sprintf("=%d", s.Rem)
	case s.Mod == 1:
		return "any"
	}
	return fmt.Sprintf("%d mod %d", s.Rem, s.Mod)
}

// satConstOrTopAdd keeps the saturated sum for the const-const case.
func satConstOrTopAdd(a, b int64) int64 { return satAdd(a, b) }

// ---------------------------------------------------------------------------
// Reduced product

// Value is one abstract integer: interval × congruence. The prover's
// only values are index components and the flattened element offset
// built from them.
type Value struct {
	I Interval
	S Stride
}

// ConstValue is the exact integer constant c.
func ConstValue(c int64) Value {
	return Value{I: ConstInterval(c), S: ConstStride(c)}
}

// IsBottom reports an impossible value (empty in either component).
func (v Value) IsBottom() bool { return v.I.IsEmpty() || v.S.Bot }

// reduce propagates information between the components: a singleton
// interval pins the congruence, a bottom in one empties the other.
func (v Value) reduce() Value {
	if v.IsBottom() {
		return Value{I: EmptyInterval(), S: BotStride()}
	}
	if c, ok := v.I.IsConst(); ok {
		if !v.S.ContainsPoint(c) {
			return Value{I: EmptyInterval(), S: BotStride()}
		}
		v.S = ConstStride(c)
	}
	return v
}

// Add, Sub and Mul are the componentwise arithmetic, reduced.
func (v Value) Add(o Value) Value { return arith(v, o, Interval.Add, Stride.Add) }

// Sub is v - o.
func (v Value) Sub(o Value) Value { return arith(v, o, Interval.Sub, Stride.Sub) }

// Mul is v * o.
func (v Value) Mul(o Value) Value { return arith(v, o, Interval.Mul, Stride.Mul) }

func arith(v, o Value, fi func(Interval, Interval) Interval, fs func(Stride, Stride) Stride) Value {
	if v.IsBottom() || o.IsBottom() {
		return Value{I: EmptyInterval(), S: BotStride()}
	}
	return Value{I: fi(v.I, o.I), S: fs(v.S, o.S)}.reduce()
}

// ---------------------------------------------------------------------------
// Small integer helpers

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// mod is the mathematical (non-negative) remainder.
func mod(a, m int64) int64 {
	if m == 0 {
		return a
	}
	r := a % m
	if r < 0 {
		r += abs64(m)
	}
	return r
}

func gcd(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
