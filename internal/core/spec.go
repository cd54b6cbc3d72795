package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/remark"
)

// SpecVersion is the current PlanSpec serialization version.
const SpecVersion = 1

// BlockSpec is one block's share of an externally supplied plan:
// which statements fuse, and which arrays contract. Clusters name
// vertex indices of the block's ASDG (built after the realign
// pre-pass when the spec requests it); only clusters of two or more
// members are listed — unlisted vertices are singletons. Contract
// lists the block's contracted arrays.
type BlockSpec struct {
	Block    int      `json:"block"`
	Clusters [][]int  `json:"clusters,omitempty"`
	Contract []string `json:"contract,omitempty"`
}

// PlanSpec is a serializable whole-program fusion/contraction plan
// that can be applied independently of the strategy ladder: the ladder
// is one plan generator, the zpltune search engine another, and a JSON
// file on disk a third. Vertex indices refer to each block's ASDG as
// built by ApplySpec, so Realign must record whether the temporary-
// realignment pre-pass ran before graph construction.
type PlanSpec struct {
	Version int  `json:"version"`
	Realign bool `json:"realign,omitempty"`
	// Note is free-form provenance ("beam search, width 8, score
	// 12345") surfaced as a plan-kind remark; it does not affect the
	// plan's hash.
	Note   string      `json:"note,omitempty"`
	Blocks []BlockSpec `json:"blocks"`
}

// Extract serializes a plan produced by ApplyEx (or ApplySpec) into
// its canonical PlanSpec.
func Extract(plan *Plan) *PlanSpec {
	spec := &PlanSpec{Version: SpecVersion, Realign: plan.Realigned}
	for bi, bp := range plan.Blocks {
		bs := BlockSpec{Block: bi}
		for _, c := range bp.Part.Clusters() {
			members := bp.Part.Members(c)
			if len(members) >= 2 {
				bs.Clusters = append(bs.Clusters, members)
			}
		}
		bs.Contract = append(bs.Contract, bp.Contracted...)
		spec.Blocks = append(spec.Blocks, bs)
	}
	spec.canonicalize()
	return spec
}

// canonicalize puts the spec in its unique normal form: members
// ascending within a cluster, clusters by first member, contraction
// lists sorted, blocks by index, empty blocks dropped.
func (s *PlanSpec) canonicalize() {
	var blocks []BlockSpec
	for _, b := range s.Blocks {
		for _, c := range b.Clusters {
			sort.Ints(c)
		}
		sort.Slice(b.Clusters, func(i, j int) bool {
			return b.Clusters[i][0] < b.Clusters[j][0]
		})
		sort.Strings(b.Contract)
		if len(b.Clusters) > 0 || len(b.Contract) > 0 {
			blocks = append(blocks, b)
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Block < blocks[j].Block })
	s.Blocks = blocks
}

// Marshal renders the spec as canonical indented JSON.
func (s *PlanSpec) Marshal() ([]byte, error) {
	c := *s
	c.Blocks = append([]BlockSpec(nil), s.Blocks...)
	c.canonicalize()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Hash returns the spec's content address: the SHA-256 of its
// canonical JSON with provenance (Note) stripped, so two searches
// that find the same plan share a cache entry.
func (s *PlanSpec) Hash() string {
	c := *s
	c.Blocks = append([]BlockSpec(nil), s.Blocks...)
	c.Note = ""
	c.canonicalize()
	b, err := json.Marshal(&c)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ParseSpec decodes a PlanSpec from JSON, rejecting unknown fields,
// unsupported versions and empty clusters (a cluster has a first
// member: canonicalize orders clusters by it).
func ParseSpec(data []byte) (*PlanSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s PlanSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("plan spec: %v", err)
	}
	if s.Version < 0 || s.Version > SpecVersion {
		return nil, fmt.Errorf("plan spec: unsupported version %d (max %d)", s.Version, SpecVersion)
	}
	for _, b := range s.Blocks {
		for i, c := range b.Clusters {
			if len(c) == 0 {
				return nil, fmt.Errorf("plan spec: block %d: cluster %d is empty", b.Block, i)
			}
		}
	}
	return &s, nil
}

// ApplySpec applies an externally supplied plan to the program: the
// same pipeline position as ApplyEx, but the fusion partition and
// contraction set come from the spec instead of the strategy ladder.
// Every Definition 5/6 condition is re-proved on the supplied plan —
// a spec that names an illegal fusion or an unsafe contraction is
// rejected with a descriptive error, never silently repaired. The
// returned plan has Level External; its remarks cite test "plan" for
// negative decisions and end with one plan-kind remark carrying the
// spec's provenance note.
func ApplySpec(prog *air.Program, spec *PlanSpec, cfg Config) (*Plan, error) {
	if spec == nil {
		return nil, fmt.Errorf("plan spec: nil")
	}
	byBlock := map[int]*BlockSpec{}
	for i := range spec.Blocks {
		b := &spec.Blocks[i]
		if prev := byBlock[b.Block]; prev != nil {
			return nil, fmt.Errorf("plan spec: block %d specified twice", b.Block)
		}
		byBlock[b.Block] = b
	}

	n := len(prog.AllBlocks())
	for bi := range byBlock {
		if bi < 0 || bi >= n {
			return nil, fmt.Errorf("plan spec: block %d out of range [0,%d)", bi, n)
		}
	}

	plan, err := Walk(prog, External, spec.Realign, cfg,
		func(bi int, g *asdg.Graph, candidates []string) (*Partition, map[string]bool, error) {
			p, err := specPartition(g, bi, byBlock[bi])
			if err != nil {
				return nil, nil, err
			}
			contracted, err := specContraction(prog, bi, byBlock[bi], p, candidates)
			return p, contracted, err
		})
	if err != nil {
		return nil, err
	}
	if spec.Note != "" {
		plan.note = remark.Remark{
			Kind: remark.Plan, Pass: "tune",
			Reason: spec.Note,
			Detail: "plan " + spec.Hash()[:12],
		}
	}
	return plan, nil
}

// specPartition builds and legality-checks one block's partition.
func specPartition(g *asdg.Graph, bi int, bs *BlockSpec) (*Partition, error) {
	if bs == nil {
		return Trivial(g), nil
	}
	p, err := FromClusters(g, bs.Clusters)
	if err != nil {
		return nil, fmt.Errorf("plan spec: block %d: %v", bi, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan spec: block %d: illegal fusion: %v", bi, err)
	}
	// Validate proves Definition 5; the FavorComm segment constraint
	// (fusion may not cross a communication segment) is checked here.
	if g.Seg != nil {
		for _, c := range p.Clusters() {
			members := p.Members(c)
			for _, v := range members[1:] {
				if g.Seg[v] != g.Seg[members[0]] {
					return nil, fmt.Errorf("plan spec: block %d: cluster {v%d…} crosses communication segments (%d vs %d)",
						bi, members[0], g.Seg[members[0]], g.Seg[v])
				}
			}
		}
	}
	return p, nil
}

// specContraction re-proves each requested contraction: the array must
// be a liveness candidate in the block, every referencing statement
// must share one cluster, and every dependence on it must carry a null
// vector (Definition 6).
func specContraction(prog *air.Program, bi int, bs *BlockSpec,
	p *Partition, candidates []string) (map[string]bool, error) {

	contracted := map[string]bool{}
	if bs == nil {
		return contracted, nil
	}
	cand := map[string]bool{}
	for _, x := range candidates {
		cand[x] = true
	}
	for _, x := range bs.Contract {
		if contracted[x] {
			return nil, fmt.Errorf("plan spec: block %d: array %s contracted twice", bi, x)
		}
		if prog.Arrays[x] == nil {
			return nil, fmt.Errorf("plan spec: block %d: unknown array %s", bi, x)
		}
		if !cand[x] {
			return nil, fmt.Errorf("plan spec: block %d: array %s is not a liveness-approved contraction candidate (its value escapes the block)", bi, x)
		}
		cs := p.ClustersReferencing(x)
		if len(cs) == 0 {
			return nil, fmt.Errorf("plan spec: block %d: array %s is referenced by no fusible statement", bi, x)
		}
		if len(cs) > 1 {
			return nil, fmt.Errorf("plan spec: block %d: array %s is referenced by %d distinct clusters; contraction requires all references in one fused cluster", bi, x, len(cs))
		}
		if !ContractionOK(p, x, cs) {
			return nil, fmt.Errorf("plan spec: block %d: array %s fails Definition 6 (a dependence on it escapes the cluster or carries a non-null vector)", bi, x)
		}
		contracted[x] = true
	}
	return contracted, nil
}
