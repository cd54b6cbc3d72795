// Package absint is a flow-sensitive abstract interpreter over the
// scalar Loop IR (internal/lir). It assigns every array read and write
// a verdict — ProvenSafe (with the interval derivation as evidence),
// ProvenUnsafe (definite out-of-bounds, a compile-time error), or
// Unknown — so the execution backends can drop bounds checks with a
// certificate instead of a hope.
//
// The abstract domain is the reduced product of two classic lattices:
//
//   - intervals over int64 with saturating (±∞-sticky) arithmetic:
//     MinInt64 and MaxInt64 act as -∞/+∞, and any overflowing
//     operation saturates toward them, so transfer functions are sound
//     for arbitrarily large concrete values;
//   - congruences ("strides"): value ≡ Rem (mod Mod), with Mod == 0
//     denoting the exact constant Rem and Mod == 1 the top element.
//
// Intervals bound *real* values with integer endpoints (the VM's
// numeric model is float64); the Int flag marks values known to be
// integral, which is what licenses the strict-inequality tightening
// used by branch refinement (x < c ⇒ x ≤ c-1 only holds for integral
// x). Widening at loop heads jumps any bound that grew to ±∞, so the
// fixpoint terminates in at most two passes per loop; the congruence
// component has finite ascending chains (joins only shrink the
// modulus), so its widening is the join.
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

// TopInterval is [-∞, +∞].
func TopInterval() Interval { return Interval{Lo: NegInf, Hi: Inf, nonEmpty: true} }

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

// IsTop reports [-∞, +∞].
func (i Interval) IsTop() bool { return i.nonEmpty && i.Lo == NegInf && i.Hi == Inf }

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

// ContainsPoint reports v ∈ i.
func (i Interval) ContainsPoint(v int64) bool {
	return i.nonEmpty && i.Lo <= v && v <= i.Hi
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

// Widen extrapolates i against its successor o: any bound that grew
// jumps to ±∞, guaranteeing a finite ascending chain at loop heads.
func (i Interval) Widen(o Interval) Interval {
	if i.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return i
	}
	w := i
	if o.Lo < i.Lo {
		w.Lo = NegInf
	}
	if o.Hi > i.Hi {
		w.Hi = Inf
	}
	return w
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

// IsTop reports the full class.
func (s Stride) IsTop() bool { return !s.Bot && s.Mod == 1 }

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

// Join is the least congruence containing both classes:
// gcd(m1, m2, |r1-r2|) with the shared remainder.
func (s Stride) Join(o Stride) Stride {
	if s.Bot {
		return o
	}
	if o.Bot {
		return s
	}
	m := gcd(gcd(s.Mod, o.Mod), abs64(s.Rem-o.Rem))
	return Congruent(m, s.Rem)
}

// Widen is the join: ascending chains of congruences are finite (the
// modulus only ever shrinks through divisors).
func (s Stride) Widen(o Stride) Stride { return s.Join(o) }

// Meet intersects the classes (Chinese remaindering). When the exact
// lcm modulus would overflow, the finer operand is returned — a sound
// over-approximation of the intersection.
func (s Stride) Meet(o Stride) Stride {
	if s.Bot || o.Bot {
		return BotStride()
	}
	if c, ok := s.IsConst(); ok {
		if o.ContainsPoint(c) {
			return s
		}
		return BotStride()
	}
	if c, ok := o.IsConst(); ok {
		if s.ContainsPoint(c) {
			return o
		}
		return BotStride()
	}
	g := gcd(s.Mod, o.Mod)
	if mod(s.Rem-o.Rem, g) != 0 {
		return BotStride()
	}
	// lcm with overflow guard.
	q := s.Mod / g
	if q != 0 && o.Mod > math.MaxInt64/q {
		if s.Mod >= o.Mod {
			return s
		}
		return o
	}
	l := q * o.Mod
	// One CRT step: find x ≡ s.Rem (mod s.Mod) ∧ x ≡ o.Rem (mod o.Mod).
	// x = s.Rem + s.Mod * t where t ≡ (o.Rem - s.Rem)/g * inv(s.Mod/g) (mod o.Mod/g).
	_, p, _ := egcd(s.Mod/g, o.Mod/g)
	t := mod((o.Rem-s.Rem)/g*p, o.Mod/g)
	return Congruent(l, s.Rem+s.Mod*t)
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

// Value is one abstract scalar: interval × congruence, plus the
// known-integral flag that licenses strict-inequality refinement.
type Value struct {
	I   Interval
	S   Stride
	Int bool
}

// TopValue is the unconstrained, possibly non-integral value.
func TopValue() Value { return Value{I: TopInterval(), S: TopStride()} }

// TopInt is the unconstrained but known-integral value.
func TopInt() Value { return Value{I: TopInterval(), S: TopStride(), Int: true} }

// ConstValue is the exact integer constant c.
func ConstValue(c int64) Value {
	return Value{I: ConstInterval(c), S: ConstStride(c), Int: true}
}

// RangeValue is an integral value in [lo, hi] with unit stride.
func RangeValue(lo, hi int64) Value {
	v := Value{I: Range(lo, hi), S: TopStride(), Int: true}
	return v.reduce()
}

// IsBottom reports an impossible value (empty in either component).
func (v Value) IsBottom() bool { return v.I.IsEmpty() || v.S.Bot }

// reduce propagates information between the components: a singleton
// interval pins the congruence, a bottom in one empties the other.
func (v Value) reduce() Value {
	if v.I.IsEmpty() || v.S.Bot {
		return Value{I: EmptyInterval(), S: BotStride(), Int: v.Int}
	}
	if c, ok := v.I.IsConst(); ok && v.Int {
		if !v.S.ContainsPoint(c) {
			return Value{I: EmptyInterval(), S: BotStride(), Int: v.Int}
		}
		v.S = ConstStride(c)
	}
	return v
}

// Join is the componentwise least upper bound.
func (v Value) Join(o Value) Value {
	if v.IsBottom() {
		return o
	}
	if o.IsBottom() {
		return v
	}
	return Value{I: v.I.Join(o.I), S: v.S.Join(o.S), Int: v.Int && o.Int}
}

// Meet is the componentwise greatest lower bound.
func (v Value) Meet(o Value) Value {
	return Value{I: v.I.Meet(o.I), S: v.S.Meet(o.S), Int: v.Int || o.Int}.reduce()
}

// Widen extrapolates at loop heads (interval widening, congruence join).
func (v Value) Widen(o Value) Value {
	return Value{I: v.I.Widen(o.I), S: v.S.Widen(o.S), Int: v.Int && o.Int}
}

// Add, Sub, Mul, Neg are the arithmetic transfer functions. The
// congruence component is only meaningful for integral values; a
// possibly-fractional operand widens it to top.
func (v Value) Add(o Value) Value { return arith(v, o, Interval.Add, Stride.Add) }

// Sub is v - o.
func (v Value) Sub(o Value) Value { return arith(v, o, Interval.Sub, Stride.Sub) }

// Mul is v * o.
func (v Value) Mul(o Value) Value { return arith(v, o, Interval.Mul, Stride.Mul) }

// Neg is -v.
func (v Value) Neg() Value {
	if v.IsBottom() {
		return v
	}
	s := TopStride()
	if v.Int {
		s = v.S.Neg()
	}
	return Value{I: v.I.Neg(), S: s, Int: v.Int}.reduce()
}

func arith(v, o Value, fi func(Interval, Interval) Interval, fs func(Stride, Stride) Stride) Value {
	if v.IsBottom() || o.IsBottom() {
		return Value{I: EmptyInterval(), S: BotStride()}
	}
	isInt := v.Int && o.Int
	s := TopStride()
	if isInt {
		s = fs(v.S, o.S)
	}
	return Value{I: fi(v.I, o.I), S: s, Int: isInt}.reduce()
}

func (v Value) String() string {
	if v.IsBottom() {
		return "(bot)"
	}
	s := v.I.String()
	if !v.S.IsTop() {
		s += " " + v.S.String()
	}
	if !v.Int {
		s += " real"
	}
	return s
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

// egcd returns g, x, y with a·x + b·y = g = gcd(a, b).
func egcd(a, b int64) (g, x, y int64) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := egcd(b, a%b)
	return g, y1, x1 - (a/b)*y1
}
