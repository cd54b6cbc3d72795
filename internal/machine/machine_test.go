package machine

import (
	"math"
	"testing"

	"repro/internal/air"
)

func TestModelsConstruct(t *testing.T) {
	for _, m := range Models() {
		tr := NewCostTracer(m, 4)
		if tr == nil || len(tr.Hierarchy().Levels) != len(m.Caches) {
			t.Errorf("%s: tracer construction failed", m.Name)
		}
		if len(m.HitCycles) != len(m.Caches) {
			t.Errorf("%s: %d hit costs for %d cache levels", m.Name, len(m.HitCycles), len(m.Caches))
		}
	}
}

func TestAccessCosts(t *testing.T) {
	tr := NewCostTracer(T3E(), 1)
	tr.Access(0, false) // cold: memory
	cold := tr.Cycles
	if cold != T3E().MemCycles {
		t.Errorf("cold access cost %f, want %f", cold, T3E().MemCycles)
	}
	tr.Access(0, false) // hot: L1
	if got := tr.Cycles - cold; got != T3E().HitCycles[0] {
		t.Errorf("hot access cost %f, want %f", got, T3E().HitCycles[0])
	}
}

func TestFlopCosts(t *testing.T) {
	tr := NewCostTracer(Paragon(), 1)
	tr.Flops(100)
	if tr.Cycles != 100*Paragon().FlopCycles {
		t.Errorf("flop cost %f", tr.Cycles)
	}
	if tr.FlopCount != 100 {
		t.Errorf("flop count %d", tr.FlopCount)
	}
}

func TestCommDisabledUniprocessor(t *testing.T) {
	tr := NewCostTracer(SP2(), 1)
	tr.Comm("A", air.Offset{0, 1}, 1000, air.CommSend, 1)
	tr.Comm("A", air.Offset{0, 1}, 1000, air.CommRecv, 1)
	tr.Reduce()
	if tr.Cycles != 0 {
		t.Errorf("p=1 charged %f comm cycles", tr.Cycles)
	}
}

// TestWholeMessageCost: an exchange with no computation between its
// send and its receive hides nothing, so the pair costs the whole
// message, α + β·bytes.
func TestWholeMessageCost(t *testing.T) {
	m := SP2()
	tr := NewCostTracer(m, 4)
	tr.Comm("A", air.Offset{0, 1}, 128, air.CommSend, 1)
	tr.Comm("A", air.Offset{0, 1}, 128, air.CommRecv, 1)
	want := m.CommAlpha + 128*8.0/1024*m.CommBetaPerKB
	if d := math.Abs(tr.Cycles - want); d > 1e-9*want {
		t.Errorf("message cost %f, want %f", tr.Cycles, want)
	}
	if tr.CommCycles != tr.Cycles {
		t.Errorf("comm cycles %f, want all %f", tr.CommCycles, tr.Cycles)
	}
}

func TestPipelineOverlap(t *testing.T) {
	m := T3E()
	// Fully hidden: lots of computation between send and recv.
	hidden := NewCostTracer(m, 4)
	hidden.Comm("A", air.Offset{0, 1}, 128, air.CommSend, 7)
	hidden.Flops(10_000_000)
	before := hidden.Cycles
	hidden.Comm("A", air.Offset{0, 1}, 128, air.CommRecv, 7)
	if hidden.Cycles != before {
		t.Errorf("fully overlapped receive still cost %f cycles", hidden.Cycles-before)
	}

	// Not hidden: nothing between send and recv — the receive pays
	// the full message cost minus only the posting overhead that
	// already elapsed.
	exposed := NewCostTracer(m, 4)
	exposed.Comm("A", air.Offset{0, 1}, 128, air.CommSend, 7)
	post := exposed.Cycles
	exposed.Comm("A", air.Offset{0, 1}, 128, air.CommRecv, 7)
	full := m.CommAlpha + 128*8.0/1024*m.CommBetaPerKB
	if got := exposed.Cycles - post; got != full-m.CommAlpha*0.25 {
		t.Errorf("unoverlapped receive cost %f, want %f", got, full-m.CommAlpha*0.25)
	}

	// Pipelined-but-exposed must never exceed α + β·bytes by more
	// than the posting overhead.
	if exposed.Cycles > full+m.CommAlpha*0.25 {
		t.Errorf("pipelined cost %f exceeds α+β·bytes %f + overhead", exposed.Cycles, full)
	}
}

func TestReduceCombineScalesWithLogP(t *testing.T) {
	m := T3E()
	c4 := NewCostTracer(m, 4)
	c4.Reduce()
	c64 := NewCostTracer(m, 64)
	c64.Reduce()
	if !(c64.Cycles > c4.Cycles) {
		t.Errorf("reduce at p=64 (%f) not above p=4 (%f)", c64.Cycles, c4.Cycles)
	}
	// log2(64)=6 rounds vs log2(4)=2 rounds: exactly 3x.
	if c64.Cycles != 3*c4.Cycles {
		t.Errorf("reduce scaling %f vs %f, want 3x", c64.Cycles, c4.Cycles)
	}
}

func TestSecondsConversion(t *testing.T) {
	tr := NewCostTracer(T3E(), 1)
	tr.Flops(450_000_000) // one modeled second at 450 MHz, 1 cycle/flop
	if got := tr.Seconds(); got < 0.99 || got > 1.01 {
		t.Errorf("seconds = %f, want 1.0", got)
	}
}

// The machines must differ in their cache behavior: a working set that
// fits the SP-2's 128 KB cache but not the T3E's small L1 should show
// a lower miss penalty share on the SP-2.
func TestMachinePersonalities(t *testing.T) {
	t3e := NewCostTracer(T3E(), 1)
	sp2 := NewCostTracer(SP2(), 1)
	// Stream over 64 KB twice.
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < 64<<10; a += 8 {
			t3e.Access(a, false)
			sp2.Access(a, false)
		}
	}
	l1t3e := t3e.Hierarchy().Levels[0]
	l1sp2 := sp2.Hierarchy().Levels[0]
	if !(l1sp2.MissRate() < l1t3e.MissRate()) {
		t.Errorf("SP-2 miss rate %.3f not below T3E %.3f for a 64KB set",
			l1sp2.MissRate(), l1t3e.MissRate())
	}
}

func TestOriginModel(t *testing.T) {
	o := Origin()
	if o.CommAlpha >= T3E().CommAlpha {
		t.Error("Origin should have lower startup cost than the T3E")
	}
	tr := NewCostTracer(o, 4)
	tr.Access(0, false)
	if tr.Cycles == 0 {
		t.Error("Origin model charges nothing")
	}
	w := o.WithCommAlpha(42)
	if w.CommAlpha != 42 || o.CommAlpha == 42 {
		t.Error("WithCommAlpha must copy, not mutate")
	}
}
