package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/asdg"
	"repro/internal/dep"
)

// Partition is a fusion partition (Definition 5) of an ASDG: a
// partitioning of the graph's vertices into fusible clusters. Each
// cluster is identified by its representative, the smallest vertex
// index it contains.
//
// The partition owns its cluster condensation — member lists and
// duplicate-free successor and predecessor lists, indexed by
// representative — built once by Trivial, FromClusters and Clone and
// updated by MergeSet. GROW therefore costs O(e), as Fig. 3 states,
// instead of a rebuild of the condensation from every ASDG edge.
//
// Each cluster also keeps a proof of its internal dependence items, so
// the legality predicates and LoopStructureFor read the clusters asked
// about and the edges between them, never the whole block. Invariant:
// every multi-statement cluster passed checkFusion when it formed
// (Validate checks a supplied one), so its members share a segment,
// are fusible and translate one another, and its representative speaks
// for them. Of its own items, only a carried anti, merged with
// NoCarriedAnti off, can fail a later check.
//
// The accessors (ClusterOf, Members, Clusters, TopoClusters, Acyclic,
// LoopStructureFor, Validate) only read, so a finished partition may be
// shared between goroutines, as a cached compilation's is. Grow,
// MergeSet and the legality predicates use the partition's scratch
// sets and belong to the one goroutine building it.
type Partition struct {
	G   *asdg.Graph
	rep []int // vertex -> cluster representative

	// NoCarriedAnti forbids clusters whose internal dependences
	// include a non-null anti dependence. The paper infers this
	// restriction in the APR and Cray compilers ("unable to fuse
	// loops that carry anti-dependences"); the emulations set it.
	NoCarriedAnti bool

	count   int     // number of clusters
	members [][]int // representative -> its vertices, ascending; nil for other vertices
	succ    [][]int // representative -> successor clusters, ascending
	pred    [][]int // representative -> predecessor clusters, ascending
	proofs  []proof // representative -> what its internal items prove

	// Scratch of the mutating half, reused so that a legality query
	// allocates nothing once the buffers have grown.
	in, down, up      stampSet
	seeds, set, queue []int

	// named is set on the partition Validate checks a plan's clusters
	// on: every statement of a merge set is one the plan names. A
	// remark's merge set is closed under GROW, which may add others.
	named bool
}

// stampSet is a set over [0,n) that empties in O(1): its members are
// the indices stamped with the current epoch.
type stampSet struct {
	at    []uint32
	epoch uint32
}

func (s *stampSet) reset(n int) {
	if len(s.at) != n {
		s.at, s.epoch = make([]uint32, n), 0
	}
	if s.epoch++; s.epoch == 0 {
		clear(s.at)
		s.epoch = 1
	}
}

// add inserts v and reports whether it was absent.
func (s *stampSet) add(v int) bool {
	if s.at[v] == s.epoch {
		return false
	}
	s.at[v] = s.epoch
	return true
}

func (s *stampSet) has(v int) bool { return s.at[v] == s.epoch }

// Trivial returns the partition with one statement per cluster.
func Trivial(g *asdg.Graph) *Partition {
	p, _ := FromClusters(g, nil)
	return p
}

// FromClusters builds a partition from an explicit cluster list: each
// inner slice names the vertices of one cluster; vertices not listed
// become singletons. It validates indices and disjointness only — the
// caller proves Definition 5 legality separately (Validate).
func FromClusters(g *asdg.Graph, clusters [][]int) (*Partition, error) {
	p := &Partition{G: g, rep: make([]int, g.N())}
	for v := range p.rep {
		p.rep[v] = v
	}
	seen := make([]bool, g.N())
	for _, members := range clusters {
		min := -1
		for _, v := range members {
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("cluster member v%d out of range [0,%d)", v, g.N())
			}
			if seen[v] {
				return nil, fmt.Errorf("vertex v%d appears in two clusters", v)
			}
			seen[v] = true
			if min < 0 || v < min {
				min = v
			}
		}
		for _, v := range members {
			p.rep[v] = min
		}
	}
	p.condense()
	return p, nil
}

// condense builds the condensation and proofs from rep and the edges.
func (p *Partition) condense() {
	n := len(p.rep)
	p.count = 0
	p.members, p.succ, p.pred = make([][]int, n), make([][]int, n), make([][]int, n)
	p.proofs = make([]proof, n)
	for v, r := range p.rep {
		if v == r {
			p.count++
		}
		p.members[r] = append(p.members[r], v)
	}
	for ei := range p.G.Edges {
		e := &p.G.Edges[ei]
		if a, b := p.rep[e.From], p.rep[e.To]; a != b {
			p.succ[a] = append(p.succ[a], b)
			p.pred[b] = append(p.pred[b], a)
		} else {
			p.proofs[a].edge(e, ei)
		}
	}
	for c := range p.succ {
		sort.Ints(p.succ[c])
		p.succ[c] = slices.Compact(p.succ[c])
		sort.Ints(p.pred[c])
		p.pred[c] = slices.Compact(p.pred[c])
	}
}

// Clone returns an independent copy of the partition.
func (p *Partition) Clone() *Partition {
	return &Partition{
		G: p.G, NoCarriedAnti: p.NoCarriedAnti, count: p.count,
		rep:     append([]int(nil), p.rep...),
		members: cloneLists(p.members),
		succ:    cloneLists(p.succ),
		pred:    cloneLists(p.pred),
		proofs:  append([]proof(nil), p.proofs...),
	}
}

// cloneLists deep-copies a list of lists into one backing array. Each
// copy's capacity is clipped to its length, so growing one list can
// never write into its neighbour.
func cloneLists(src [][]int) [][]int {
	total := 0
	for _, l := range src {
		total += len(l)
	}
	buf := make([]int, 0, total)
	dst := make([][]int, len(src))
	for i, l := range src {
		if l != nil {
			buf = append(buf, l...)
			dst[i] = buf[len(buf)-len(l) : len(buf) : len(buf)]
		}
	}
	return dst
}

// ClusterOf returns the representative of the cluster containing v.
func (p *Partition) ClusterOf(v int) int { return p.rep[v] }

// NumClusters returns the number of clusters.
func (p *Partition) NumClusters() int { return p.count }

// Members returns the vertices of the cluster with representative c,
// in program order (nil when c is not a representative). The slice is
// the caller's.
func (p *Partition) Members(c int) []int {
	return append([]int(nil), p.membersOf(c)...)
}

// membersOf is Members without the copy.
func (p *Partition) membersOf(c int) []int {
	if c < 0 || c >= len(p.members) {
		return nil
	}
	return p.members[c]
}

// Clusters returns all cluster representatives in ascending order.
func (p *Partition) Clusters() []int {
	out := make([]int, 0, p.count)
	for c, m := range p.members {
		if m != nil {
			out = append(out, c)
		}
	}
	return out
}

// MergeSet unions the clusters named by cs into one, represented by
// its smallest member, mirroring lines 8–10 of Fig. 3. Any member
// vertex names its cluster.
func (p *Partition) MergeSet(cs map[int]bool) { p.merge(p.clustersOf(cs)) }

// clustersOf lists the clusters named by the true keys of cs.
func (p *Partition) clustersOf(cs map[int]bool) []int {
	p.queue = p.queue[:0]
	for v, ok := range cs {
		if ok {
			p.queue = append(p.queue, v)
		}
	}
	return p.clusters(p.queue)
}

// clusters lists the distinct representatives of the clusters holding
// the given vertices. The result is scratch and unordered.
func (p *Partition) clusters(vertices []int) []int {
	p.in.reset(len(p.rep))
	p.seeds = p.seeds[:0]
	for _, v := range vertices {
		if r := p.rep[v]; p.in.add(r) {
			p.seeds = append(p.seeds, r)
		}
	}
	return p.seeds
}

// merge unions the given distinct clusters and folds their rows of the
// condensation and their proofs into the survivor's, in time
// proportional to the clusters' members and neighbours.
func (p *Partition) merge(set []int) {
	if len(set) < 2 {
		return
	}
	_, m, big := p.stamp(set)
	proved := p.joined(set, big)
	succ := p.absorb(p.succ, p.pred, set, m)
	pred := p.absorb(p.pred, p.succ, set, m)
	all := p.members[m]
	for _, c := range set {
		if c == m {
			continue
		}
		for _, v := range p.members[c] {
			p.rep[v] = m
		}
		all = append(all, p.members[c]...)
		p.members[c], p.succ[c], p.pred[c], p.proofs[c] = nil, nil, nil, proof{}
	}
	sort.Ints(all)
	p.members[m], p.succ[m], p.pred[m], p.proofs[m] = all, succ, pred, proved
	p.count -= len(set) - 1
}

// stamp puts the clusters of set in p.in and returns how many are
// distinct, the smallest and the one with the most members.
func (p *Partition) stamp(set []int) (n, m, big int) {
	p.in.reset(len(p.rep))
	for _, c := range set {
		if p.in.add(c) {
			if n++; n == 1 || c < m {
				m = c
			}
			if n == 1 || len(p.members[c]) > len(p.members[big]) {
				big = c
			}
		}
	}
	return n, m, big
}

// joined returns the proof of the merge of the clusters in set, which
// p.in holds: their proofs and the items on the edges between them,
// each found once from the members of the clusters other than big.
func (p *Partition) joined(set []int, big int) proof {
	g := p.G
	s := proof{first: p.proofs[big].first, vecs: slices.Clone(p.proofs[big].vecs)}
	for _, c := range set {
		if c == big {
			continue
		}
		s.join(&p.proofs[c])
		for _, v := range p.members[c] {
			for _, ei := range g.Out(v) {
				if d := p.rep[g.Edges[ei].To]; d != c && p.in.has(d) {
					s.edge(&g.Edges[ei], ei)
				}
			}
			for _, ei := range g.In(v) {
				if p.rep[g.Edges[ei].From] == big {
					s.edge(&g.Edges[ei], ei)
				}
			}
		}
	}
	return s
}

// absorb returns the union of the fwd lists of the clusters in set
// (which p.in holds) without the set itself, and makes the back list
// of every cluster in that union name m in place of the set's members.
func (p *Partition) absorb(fwd, back [][]int, set []int, m int) []int {
	var out []int
	p.down.reset(len(p.rep))
	for _, c := range set {
		for _, d := range fwd[c] {
			if !p.in.has(d) && p.down.add(d) {
				out = append(out, d)
			}
		}
	}
	sort.Ints(out)
	for _, d := range out {
		kept := back[d][:0]
		for _, c := range back[d] {
			if !p.in.has(c) {
				kept = append(kept, c)
			}
		}
		back[d] = insertSorted(kept, m)
	}
	return out
}

// ClustersReferencing returns the representatives of the clusters that
// contain a reference to array x (line 5 of Fig. 3).
func (p *Partition) ClustersReferencing(x string) map[int]bool {
	out := map[int]bool{}
	for _, c := range p.clusters(p.G.Referencing(x)) {
		out[c] = true
	}
	return out
}

// closure returns seeds ∪ GROW(seeds) in ascending order; seeds are
// representatives. It walks the maintained condensation once forward
// and once backward, so it runs in O(e). The result is scratch, valid
// until the next call, and p.in is left holding exactly the seeds.
func (p *Partition) closure(seeds []int) []int {
	n := len(p.rep)
	p.in.reset(n)
	set := p.set[:0]
	for _, s := range seeds {
		if p.in.add(s) {
			set = append(set, s)
		}
	}
	p.up.reset(n)
	p.queue = reach(set, p.pred, &p.up, p.queue[:0])
	p.down.reset(n)
	// The clusters reachable from the seeds land behind them and are
	// filtered in place down to those that also reach a seed.
	all := reach(set, p.succ, &p.down, set)
	k := len(set)
	for _, d := range all[k:] {
		if p.up.has(d) && !p.in.has(d) {
			all[k] = d
			k++
		}
	}
	p.set = all[:k]
	sort.Ints(p.set)
	return p.set
}

// reach appends to buf, and stamps in seen, every cluster one or more
// adj steps away from a cluster of start.
func reach(start []int, adj [][]int, seen *stampSet, buf []int) []int {
	from := len(buf)
	for _, s := range start {
		for _, d := range adj[s] {
			if seen.add(d) {
				buf = append(buf, d)
			}
		}
	}
	for ; from < len(buf); from++ {
		for _, d := range adj[buf[from]] {
			if seen.add(d) {
				buf = append(buf, d)
			}
		}
	}
	return buf
}

// Grow implements GROW(c, G): the clusters not in c that are reachable
// from c and that reach c — exactly the clusters that would sit on an
// inter-fusible-cluster dependence cycle if c were fused (line 6 of
// Fig. 3). Runs in O(e).
func (p *Partition) Grow(c map[int]bool) map[int]bool {
	out := map[int]bool{}
	for _, d := range p.closure(p.clustersOf(c)) {
		if !p.in.has(d) {
			out[d] = true
		}
	}
	return out
}

// Acyclic reports whether the cluster-level condensation is a DAG
// (condition (iii) of Definition 5): a topological order covers it.
func (p *Partition) Acyclic() bool { return len(p.TopoClusters()) == p.count }

// LoopStructureFor computes the loop structure vector for an existing
// cluster: the Fig. 4 algorithm over the vectors of its internal
// dependences (the identity structure when there are none). The bool
// is false when no legal structure exists (which a valid partition
// never exhibits).
func (p *Partition) LoopStructureFor(c int) (dep.LoopStructure, bool) {
	members := p.membersOf(c)
	if len(members) == 0 {
		return nil, true // not a representative: no loop nest
	}
	reg := p.G.StmtRegion(members[0])
	if reg == nil {
		return nil, true // unnormalized singleton: no loop nest
	}
	return FindLoopStructure(reg.Rank(), p.proofs[c].vecs)
}

// Validate re-checks Definition 5 on the partition, as ApplySpec does
// for a supplied plan: every cluster's members, merged from singletons,
// pass checkFusion (the predicate the ladder and the plan searches
// use), and the condensation is acyclic. A failed cluster's error is
// the diagnosis a remark would carry: the test and its witness. The
// check runs on a trivial partition of its own, so p stays read-only.
func (p *Partition) Validate() error {
	t := Trivial(p.G)
	t.NoCarriedAnti, t.named = p.NoCarriedAnti, true
	for _, c := range p.Clusters() {
		if d := diagnoseFusion(t, p.members[c]); !d.OK {
			return d.err("cluster " + clusterString(p.members[c]))
		}
	}
	if !p.Acyclic() {
		return fmt.Errorf("partition has an inter-cluster cycle")
	}
	return nil
}

// TopoClusters returns the cluster representatives in a topological
// order of the cluster condensation, breaking ties by program order.
func (p *Partition) TopoClusters() []int {
	indeg := make([]int, len(p.rep))
	// The ready list stays sorted, so the smallest representative goes
	// first: a deterministic order close to program order.
	var ready []int
	for c, m := range p.members {
		if m == nil {
			continue
		}
		if indeg[c] = len(p.pred[c]); indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	out := make([]int, 0, p.count)
	for len(ready) > 0 {
		c := ready[0]
		ready = ready[1:]
		out = append(out, c)
		for _, b := range p.succ[c] {
			indeg[b]--
			if indeg[b] == 0 {
				ready = insertSorted(ready, b)
			}
		}
	}
	return out
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// String renders the partition as {v0 v2} {v1} ... in topological order.
func (p *Partition) String() string {
	var parts []string
	for _, c := range p.TopoClusters() {
		parts = append(parts, clusterString(p.members[c]))
	}
	return strings.Join(parts, " ")
}

// clusterString renders the vertices ms as {v0 v2}.
func clusterString(ms []int) string {
	strs := make([]string, len(ms))
	for i, v := range ms {
		strs[i] = fmt.Sprintf("v%d", v)
	}
	return "{" + strings.Join(strs, " ") + "}"
}
