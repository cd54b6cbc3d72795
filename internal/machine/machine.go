// Package machine models the three evaluation platforms of §5 — the
// Cray T3E, IBM SP-2, and Intel Paragon — as deterministic cycle cost
// models driven by the VM's execution trace.
//
// The paper ran on real hardware that no longer exists; per the
// substitution rule, each machine becomes a cache hierarchy (with the
// published geometry) plus per-event cycle charges: floating-point
// operations, cache hits and misses at each level, and an α + β·bytes
// linear communication cost with overlap accounting for pipelined
// sends and receives. Absolute times are not comparable to the paper's
// — the *relative* behavior of the transformation ladder is what the
// model reproduces.
package machine

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/cachesim"
)

// Model is one machine configuration.
type Model struct {
	Name string
	MHz  float64

	// Cache hierarchy, L1 first.
	Caches []cachesim.Config

	// Cycle charges.
	FlopCycles    float64
	HitCycles     []float64 // per cache level
	MemCycles     float64   // access that misses every level
	CommAlpha     float64   // message startup, cycles
	CommBetaPerKB float64   // cycles per KB transferred
}

// T3E models a Cray T3E node: 450 MHz Alpha 21164, 8 KB direct-mapped
// L1 and 96 KB 3-way L2 data caches, fast proprietary interconnect.
func T3E() Model {
	return Model{
		Name: "Cray T3E",
		MHz:  450,
		Caches: []cachesim.Config{
			{Name: "L1", SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 1},
			{Name: "L2", SizeBytes: 96 * 1024, LineBytes: 64, Assoc: 3},
		},
		FlopCycles:    1,
		HitCycles:     []float64{1, 9},
		MemCycles:     60,
		CommAlpha:     1200, // low-latency E-register communication
		CommBetaPerKB: 1500,
	}
}

// SP2 models an IBM SP-2 node: 120 MHz POWER2 Super Chip with a single
// large 128 KB 4-way data cache and a relatively high-latency switch.
func SP2() Model {
	return Model{
		Name: "IBM SP-2",
		MHz:  120,
		Caches: []cachesim.Config{
			{Name: "L1", SizeBytes: 128 * 1024, LineBytes: 128, Assoc: 4},
		},
		FlopCycles:    0.5, // dual FPU
		HitCycles:     []float64{1},
		MemCycles:     22,
		CommAlpha:     4800, // ~40µs MPL latency at 120 MHz
		CommBetaPerKB: 3400,
	}
}

// Paragon models an Intel Paragon node: 75 MHz i860 XP with an 8 KB
// 2-way data cache and a mesh network with modest latency but low
// per-node compute.
func Paragon() Model {
	return Model{
		Name: "Intel Paragon",
		MHz:  75,
		Caches: []cachesim.Config{
			{Name: "L1", SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 2},
		},
		FlopCycles:    2,
		HitCycles:     []float64{1},
		MemCycles:     10, // slow clock: memory relatively close
		CommAlpha:     3000,
		CommBetaPerKB: 500, // high-bandwidth mesh relative to compute
	}
}

// Origin models an SGI Origin-class machine: the paper's conclusion
// speculates that hardware-supported low-cost synchronization makes
// the fusion/communication integration even more important. Relative
// to the T3E the communication startup is an order of magnitude
// cheaper; the memory system resembles a large unified cache.
func Origin() Model {
	return Model{
		Name: "SGI Origin",
		MHz:  250,
		Caches: []cachesim.Config{
			{Name: "L1", SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 2},
			{Name: "L2", SizeBytes: 4 * 1024 * 1024, LineBytes: 128, Assoc: 2},
		},
		FlopCycles:    1,
		HitCycles:     []float64{1, 10},
		MemCycles:     80,
		CommAlpha:     150, // hardware-assisted remote access
		CommBetaPerKB: 700,
	}
}

// ByName resolves a short machine name ("t3e", "sp2", "paragon",
// "origin") to its model; the second result reports whether the name
// is known.
func ByName(name string) (Model, bool) {
	switch name {
	case "t3e":
		return T3E(), true
	case "sp2":
		return SP2(), true
	case "paragon":
		return Paragon(), true
	case "origin":
		return Origin(), true
	}
	return Model{}, false
}

// Models returns the three paper machines in presentation order.
// (Origin is the conclusion's extrapolation target, exercised by the
// latency-sensitivity study, not part of the paper's tables.)
func Models() []Model {
	return []Model{T3E(), SP2(), Paragon()}
}

// WithCommAlpha returns a copy of the model with the message startup
// cost replaced — the knob of the latency-sensitivity study.
func (m Model) WithCommAlpha(alpha float64) Model {
	m.Name = fmt.Sprintf("%s (α=%g)", m.Name, alpha)
	m.CommAlpha = alpha
	return m
}

// The charges below are the model's one definition of each event's
// cost: CostTracer charges them as a run reports its events, and
// internal/tune's static models charge them per statement.

// AccessCycles is the charge of one access served by cache level
// (0 is L1); a level past the last cache is memory.
func (m Model) AccessCycles(level int) float64 {
	if level < len(m.HitCycles) {
		return m.HitCycles[level]
	}
	return m.MemCycles
}

// MessageCycles is the α + β·bytes cost of one message carrying elems
// 8-byte elements.
func (m Model) MessageCycles(elems float64) float64 {
	return m.CommAlpha + elems*8/1024*m.CommBetaPerKB
}

// SendCycles is the posting overhead of a pipelined send, α/4.
func (m Model) SendCycles() float64 { return m.CommAlpha * 0.25 }

// ReduceCycles is the global combine of one full reduction over procs
// processors: a binary combining tree of ⌈log2 procs⌉ rounds of
// one-element messages.
func (m Model) ReduceCycles(procs int) float64 {
	rounds := 0
	for p := 1; p < procs; p *= 2 {
		rounds++
	}
	return float64(rounds) * m.MessageCycles(1)
}

// CostTracer implements vm.Tracer, accumulating modeled cycles.
//
// Concurrency contract: a CostTracer is single-goroutine state — the
// cache hierarchy and the cycle accumulators are mutated on every
// callback with no internal locking. Drive each tracer from exactly
// one goroutine and read its results only after that goroutine is
// done. (The harness's concurrent fan-out honors this by giving every
// model its own tracer and its own replay goroutine.)
type CostTracer struct {
	Model Model
	Procs int // processor count; 1 disables communication cost

	hier *cachesim.Hierarchy

	Cycles      float64
	CommCycles  float64
	FlopCount   int64
	AccessCount int64

	// Pipelining: pending sends by message id, recording the cycle at
	// which the send was posted.
	pending map[int]float64
}

// NewCostTracer builds a tracer for the model with p processors.
func NewCostTracer(m Model, procs int) *CostTracer {
	h, err := cachesim.NewHierarchy(m.Caches...)
	if err != nil {
		panic(err)
	}
	return &CostTracer{Model: m, Procs: procs, hier: h, pending: map[int]float64{}}
}

// Hierarchy exposes the simulated caches for inspection.
func (t *CostTracer) Hierarchy() *cachesim.Hierarchy { return t.hier }

// Access charges one array element access through the cache hierarchy.
func (t *CostTracer) Access(addr int64, write bool) {
	t.AccessCount++
	t.Cycles += t.Model.AccessCycles(t.hier.Access(addr))
}

// Flops charges n floating-point operations.
func (t *CostTracer) Flops(n int64) {
	t.FlopCount += n
	t.Cycles += float64(n) * t.Model.FlopCycles
}

// Comm charges one half of a pipelined exchange: a send costs only its
// posting overhead, and its receive charges the portion of the message
// cost not hidden by the computation executed since the send.
func (t *CostTracer) Comm(array string, off air.Offset, elems int, phase air.CommPhase, msgID int) {
	if t.Procs <= 1 {
		return
	}
	switch phase {
	case air.CommSend:
		// Post the message; overlap accounting happens at receive.
		t.pending[msgID] = t.Cycles
		// Posting overhead.
		t.Cycles += t.Model.SendCycles()
		t.CommCycles += t.Model.SendCycles()
	case air.CommRecv:
		cost := t.Model.MessageCycles(float64(elems))
		if posted, ok := t.pending[msgID]; ok {
			elapsed := t.Cycles - posted
			delete(t.pending, msgID)
			if elapsed > cost {
				cost = 0 // fully hidden
			} else {
				cost -= elapsed
			}
		}
		t.Cycles += cost
		t.CommCycles += cost
	}
}

// Reduce charges the global combine of one full reduction.
func (t *CostTracer) Reduce() {
	if t.Procs <= 1 {
		return
	}
	c := t.Model.ReduceCycles(t.Procs)
	t.Cycles += c
	t.CommCycles += c
}

// Seconds converts accumulated cycles to modeled wall time.
func (t *CostTracer) Seconds() float64 { return t.Cycles / (t.Model.MHz * 1e6) }
