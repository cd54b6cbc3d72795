package core

import (
	"sort"

	"repro/internal/asdg"
)

// eachRef calls f once per array reference of every fusible statement
// — the write, then each read — in program order.
func eachRef(g *asdg.Graph, f func(v int, array string)) {
	for v := range g.Stmts {
		if g.IsFusible(v) {
			for _, x := range g.Arrays(v) {
				f(v, x)
			}
		}
	}
}

// weights computes the reference weight w(x, G) of §3 for every array
// in one walk of the graph: the number of array element references
// that contraction of x would eliminate — the number of array-level
// references to x, each weighted by the size of the region over which
// it occurs.
func weights(g *asdg.Graph) map[string]int {
	w := map[string]int{}
	eachRef(g, func(v int, x string) { w[x] += g.StmtRegion(v).Size() })
	return w
}

// ByDecreasingWeight sorts array names by decreasing w(x, G), breaking
// ties by name for determinism (line 3 of Fig. 3).
func ByDecreasingWeight(g *asdg.Graph, names []string) []string {
	w := weights(g)
	out := append([]string(nil), names...)
	sort.SliceStable(out, func(i, j int) bool {
		if wi, wj := w[out[i]], w[out[j]]; wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	return out
}

// FusionOK is the FUSION-PARTITION? predicate over a cluster set given
// as a map, the form the emulations and external plan generators use:
// merging the clusters in cs must yield a valid fusion partition. The
// caller is responsible for closing cs under Grow first. The check
// itself is checkFusion (diagnose.go).
func FusionOK(p *Partition, cs map[int]bool) bool {
	return checkFusion(p, p.clustersOf(cs)).ok()
}

// ContractionOK is the CONTRACTIBLE? predicate in the same form: after
// fusing the clusters in cs, array x is contractible iff every
// dependence due to x is confined to the fused cluster with a null
// unconstrained distance vector (checkContraction). Liveness candidacy
// is the caller's obligation.
func ContractionOK(p *Partition, x string, cs map[int]bool) bool {
	return checkContraction(p, x, p.clustersOf(cs)).ok()
}

// FusionForContraction is the algorithm of Fig. 3. candidates is the
// set of arrays whose live ranges allow elimination; the algorithm
// considers them in order of decreasing reference weight and fuses the
// clusters referencing each when that makes the array contractible.
// It returns the partition and the set of arrays for which contraction
// was enabled.
//
// When p is non-nil the algorithm refines the given partition instead
// of starting from the trivial one (used to layer strategies).
func FusionForContraction(g *asdg.Graph, p *Partition, candidates []string) (*Partition, map[string]bool) {
	if p == nil {
		p = Trivial(g)
	}
	contracted := map[string]bool{}
	for _, x := range ByDecreasingWeight(g, candidates) {
		c := p.clusters(g.Referencing(x))
		if len(c) == 0 {
			continue
		}
		c = p.closure(c)
		if checkContraction(p, x, c).ok() && checkFusion(p, c).ok() {
			p.merge(c)
			contracted[x] = true
		}
	}
	return p, contracted
}

// FusionForLocality is the variant described at the end of §4.1: the
// same greedy weight-ordered collective fusion, with the CONTRACTIBLE?
// test removed — all statements referencing the array with the largest
// locality benefit are fused when legal.
func FusionForLocality(g *asdg.Graph, p *Partition, arrays []string) *Partition {
	if p == nil {
		p = Trivial(g)
	}
	for _, x := range ByDecreasingWeight(g, arrays) {
		c := p.clusters(g.Referencing(x))
		if len(c) < 2 {
			continue
		}
		if c = p.closure(c); checkFusion(p, c).ok() {
			p.merge(c)
		}
	}
	return p
}

// AllArrays returns the names of arrays referenced by fusible
// statements of the graph, for locality-fusion candidate lists.
func AllArrays(g *asdg.Graph) []string {
	seen := map[string]bool{}
	var out []string
	eachRef(g, func(_ int, x string) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	})
	sort.Strings(out)
	return out
}
