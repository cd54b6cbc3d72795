package core

import "math/bits"

// GreedyPairwise performs all legal fusion by a greedy pairwise
// algorithm (the f4 transformation of §5.4): repeatedly merge the
// first pair of clusters (plus the cycle closure Grow demands) that
// may legally fuse, until no pair can be merged.
func GreedyPairwise(p *Partition) *Partition { return greedyPairs(p, 0) }

// GreedyPairwiseShared is the spatial-locality-sensitive variant of
// greedy pairwise fusion that §5.4 leaves to future work: SP slowed
// down under plain f4's indiscriminate fusion everywhere except where
// independent statements actually share operands. This variant merges
// a cluster pair only when the two clusters reference at least
// minShared common arrays — fusing exactly the statements whose
// combination yields register/cache reuse, and leaving unrelated
// statements in their own nests where they stream best.
func GreedyPairwiseShared(p *Partition, minShared int) *Partition {
	return greedyPairs(p, max(minShared, 1))
}

// greedyPairs merges, until none is left, the first pair of clusters
// in lexicographic order of representatives that shares at least
// minShared arrays and whose closure under GROW passes
// FUSION-PARTITION?. It rescans from the first pair after every merge,
// as the definition does, but tests no pair twice:
//
// FUSION-PARTITION? is anti-monotone in the vertex set. Fusibility,
// region conformance (Translates is an equivalence: rank and extents),
// the segment rule, "no ordering-only item", "flows null",
// NoCarriedAnti and FIND-LOOP-STRUCTURE (which succeeds iff some
// dimension order exists, and an order for a vector set serves every
// subset) all stay violated when vertices are added. A merge only
// coarsens the condensation, so reachability, and with it the vertex
// set of c ∪ GROW(c), only grows. Hence a pair that failed fails after
// every later merge, and a merged cluster inherits the failures of its
// constituents: the failed-pair memo skips exactly pairs the rescan
// would reject again, and the merge sequence is that of the rescan.
// For the same reason a pair whose representatives already differ in
// fusibility, region class or segment fails without being tested: its
// closure contains both.
//
// The shared-array test is not monotone — a merge can give a pair its
// first common array — so it is evaluated afresh and never memoised.
func greedyPairs(p *Partition, minShared int) *Partition {
	n := p.G.N()
	class := fusionClasses(p)
	failed := newBitRows(n, n) // symmetric: failed[a] holds b iff {a,b} ∪ GROW failed
	var refs bitRows           // refs[c] holds the arrays cluster c references; empty when unused
	if minShared > 0 {
		arrays := map[string]int{}
		for i, x := range AllArrays(p.G) {
			arrays[x] = i
		}
		refs = newBitRows(n, len(arrays))
		eachRef(p.G, func(v int, x string) { refs.set(p.rep[v], arrays[x]) })
	}
	for {
		set := firstLegalPair(p, minShared, class, failed, refs)
		if set == nil {
			return p
		}
		p.merge(set)
		m := set[0]
		for _, c := range set[1:] {
			failed.or(m, c)
			refs.or(m, c)
		}
		for x := 0; x < n; x++ {
			if failed.has(m, x) {
				failed.set(x, m)
			}
		}
	}
}

// firstLegalPair returns the closure of the first admissible pair that
// passes FUSION-PARTITION? (scratch, ascending), or nil, recording the
// pairs that fail on the way.
func firstLegalPair(p *Partition, minShared int, class []int, failed, refs bitRows) []int {
	cl := p.Clusters()
	for i, a := range cl {
		if class[a] < 0 {
			continue
		}
		for _, b := range cl[i+1:] {
			if class[b] != class[a] || failed.has(a, b) || refs.common(a, b) < minShared {
				continue
			}
			pair := [2]int{a, b}
			if set := p.closure(pair[:]); checkFusion(p, set).ok() {
				return set
			}
			failed.set(a, b)
			failed.set(b, a)
		}
	}
	return nil
}

// fusionClasses labels every vertex with what a cluster containing it
// must agree on: -1 for an unfusible statement, otherwise one id per
// (region up to translation, communication segment).
func fusionClasses(p *Partition) []int {
	g := p.G
	class := make([]int, g.N())
	var first []int // one vertex of each class
next:
	for v := range class {
		if !g.IsFusible(v) {
			class[v] = -1
			continue
		}
		for id, w := range first {
			if Translates(g.StmtRegion(w), g.StmtRegion(v)) && (g.Seg == nil || g.Seg[w] == g.Seg[v]) {
				class[v] = id
				continue next
			}
		}
		class[v] = len(first)
		first = append(first, v)
	}
	return class
}

// bitRows is a matrix of bits, one fixed-width row per index, in a
// single allocation.
type bitRows struct {
	words int // per row
	bits  []uint64
}

func newBitRows(rows, width int) bitRows {
	words := (width + 63) / 64
	return bitRows{words, make([]uint64, rows*words)}
}

func (r bitRows) row(i int) []uint64 { return r.bits[i*r.words : (i+1)*r.words] }

func (r bitRows) set(i, j int) { r.row(i)[j/64] |= 1 << (j % 64) }

func (r bitRows) has(i, j int) bool { return r.row(i)[j/64]&(1<<(j%64)) != 0 }

// or adds row src to row dst.
func (r bitRows) or(dst, src int) {
	d := r.row(dst)
	for k, w := range r.row(src) {
		d[k] |= w
	}
}

// common counts the bits rows i and j share.
func (r bitRows) common(i, j int) int {
	n, b := 0, r.row(j)
	for k, w := range r.row(i) {
		n += bits.OnesCount64(w & b[k])
	}
	return n
}
