package ccache

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/vm"
)

func keyN(n int) Key {
	var k Key
	k[0] = byte(n)
	k[1] = byte(n >> 8)
	return k
}

func entryN(n int, size int64) *Entry {
	return &Entry{Source: fmt.Sprintf("prog-%d", n), Size: size}
}

// TestLRUEvictionAtByteBound: inserting past the byte budget must
// evict exactly the least-recently-used entries, and touching an entry
// must rescue it from eviction order.
func TestLRUEvictionAtByteBound(t *testing.T) {
	c := New(300)
	for i := 0; i < 3; i++ {
		c.Put(keyN(i), entryN(i, 100))
	}
	if s := c.Stats(); s.Entries != 3 || s.Bytes != 300 || s.Evictions != 0 {
		t.Fatalf("warm state wrong: %+v", s)
	}

	// Touch key 0 so key 1 is now the LRU.
	if _, ok := c.Get(keyN(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}

	// Insert a 150-byte entry: must evict keys 1 and 2 (LRU order),
	// keeping 0 and 3.
	c.Put(keyN(3), entryN(3, 150))
	s := c.Stats()
	if s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (stats %+v)", s.Evictions, s)
	}
	if s.Bytes != 250 || s.Entries != 2 {
		t.Fatalf("resident = %d bytes / %d entries, want 250/2", s.Bytes, s.Entries)
	}
	if _, ok := c.Get(keyN(1)); ok {
		t.Error("LRU key 1 survived eviction")
	}
	if _, ok := c.Get(keyN(2)); ok {
		t.Error("key 2 survived eviction")
	}
	if _, ok := c.Get(keyN(0)); !ok {
		t.Error("recently-touched key 0 was evicted")
	}
	if _, ok := c.Get(keyN(3)); !ok {
		t.Error("fresh key 3 was evicted")
	}

	// An entry larger than the whole budget is never cached (and must
	// not evict the world to make room).
	c.Put(keyN(9), entryN(9, 1000))
	s = c.Stats()
	if s.TooLarge != 1 {
		t.Errorf("tooLarge = %d, want 1", s.TooLarge)
	}
	if _, ok := c.Get(keyN(9)); ok {
		t.Error("oversized entry was cached")
	}
	if _, ok := c.Get(keyN(0)); !ok {
		t.Error("oversized insert evicted resident entries")
	}
}

// TestKeySensitivity: the content address must move when — and only
// when — a semantically significant input moves.
func TestKeySensitivity(t *testing.T) {
	src := "program p; ... end;"
	base := driver.Options{Level: core.C2F3, Configs: map[string]int64{"n": 32, "steps": 5}}

	same := driver.Options{Level: core.C2F3, Configs: map[string]int64{"steps": 5, "n": 32}}
	if KeyOf(src, base) != KeyOf(src, same) {
		t.Error("config map iteration order changed the key")
	}

	// Hooks are observational, not semantic.
	hooked := base
	hooked.Hooks = driver.Hooks{PhaseStart: func(string) {}, PhaseEnd: func(string) {}}
	if KeyOf(src, base) != KeyOf(src, hooked) {
		t.Error("hooks changed the key")
	}

	distinct := map[string]Key{"base": KeyOf(src, base)}
	add := func(name string, k Key) {
		for prev, pk := range distinct {
			if pk == k {
				t.Errorf("%s collides with %s", name, prev)
			}
		}
		distinct[name] = k
	}

	lvl := base
	lvl.Level = core.Baseline
	add("level", KeyOf(src, lvl))

	cfg := base
	cfg.Configs = map[string]int64{"n": 64, "steps": 5}
	add("config", KeyOf(src, cfg))

	co4 := comm.DefaultOptions(4)
	dist := base
	dist.Comm = &co4
	add("procs=4", KeyOf(src, dist))

	co8 := comm.DefaultOptions(8)
	dist8 := base
	dist8.Comm = &co8
	add("procs=8", KeyOf(src, dist8))

	strat := base
	coFC := comm.DefaultOptions(4)
	coFC.Strategy = comm.FavorComm
	strat.Comm = &coFC
	add("strategy", KeyOf(src, strat))

	srep := base
	srep.ScalarReplace = true
	add("scalarrep", KeyOf(src, srep))

	chk := base
	chk.Check = true
	add("check", KeyOf(src, chk))

	add("source", KeyOf(src+" ", base))

	planned := base
	planned.Plan = &core.PlanSpec{Version: 1, Blocks: []core.BlockSpec{
		{Block: 0, Clusters: [][]int{{0, 1}}}}}
	add("plan", KeyOf(src, planned))

	planned2 := base
	planned2.Plan = &core.PlanSpec{Version: 1, Blocks: []core.BlockSpec{
		{Block: 0, Clusters: [][]int{{0, 2}}}}}
	add("plan2", KeyOf(src, planned2))

	// A plan's provenance note is not part of its content address.
	noted := base
	noted.Plan = &core.PlanSpec{Version: 1, Note: "beam", Blocks: planned.Plan.Blocks}
	if KeyOf(src, planned) != KeyOf(src, noted) {
		t.Error("plan note changed the key")
	}

	add("extra", KeyOfExtra(src, base, "beam=8"))
	add("extra2", KeyOfExtra(src, base, "beam=16"))
	if KeyOfExtra(src, base, "") != KeyOf(src, base) {
		t.Error("empty extra diverged from KeyOf")
	}

	// Bounds-check elimination shapes the artifact: a compilation with
	// the prover disabled (every check kept) must not alias the default
	// proven one, and a seeded-fault compilation must alias neither.
	noprove := base
	noprove.NoProve = true
	add("prove=off", KeyOf(src, noprove))

	fault := base
	fault.ProveFault = 1
	add("provefault=1", KeyOf(src, fault))

	fault2 := base
	fault2.ProveFault = 2
	add("provefault=2", KeyOf(src, fault2))

	// The execution backend is a key dimension: a native request must
	// not alias the VM entry for the same (source, level).
	native := base
	native.Backend = driver.BackendGo
	add("backend=go", KeyOf(src, native))

	// ...but the VM backend spelled explicitly is the default spelled
	// implicitly: pre-backend keys stay stable.
	vmExplicit := base
	vmExplicit.Backend = driver.BackendVM
	if KeyOf(src, base) != KeyOf(src, vmExplicit) {
		t.Error("explicit vm backend changed the key")
	}

	// The artifact kind is a further dimension on top of the backend.
	add("kind=native", KeyOfKind(src, native, ArtifactNative))
	add("kind=tune", KeyOfKind(src, base, ArtifactTune))
	add("kind=lazy", KeyOfKind(src, base, ArtifactLazy))
	add("kind=lazy,backend=go", KeyOfKind(src, native, ArtifactLazy))
	if KeyOfKind(src, base, ArtifactIR) != KeyOf(src, base) {
		t.Error("ArtifactIR kind diverged from KeyOf")
	}
	if KeyOfKind(src, base, "") != KeyOf(src, base) {
		t.Error("empty kind diverged from KeyOf")
	}
}

// TestPutChargesResidentMachine: an IR entry is charged its program's
// price on top of SizeOf, and its compilation then keeps the machine a
// run hands back, which the next run rewinds; where the price would not
// fit the budget, the entry is charged SizeOf alone and every run
// builds its machine. A lazy entry (whose engine charges its own
// executors) is charged what it says.
func TestPutChargesResidentMachine(t *testing.T) {
	src := "program p; region R = [1..8]; var A : [R] double; var s : double;\n" +
		"proc main() begin [R] A := index1; s := +<< [R] A; writeln(s); end;"
	for _, budget := range []int64{1 << 20, 0, -1} {
		comp := driver.MustCompile(src, driver.Options{Level: core.Baseline})
		price, err := comp.LIR.Bytes()
		if err != nil || price == 0 {
			t.Fatalf("price %d, %v", price, err)
		}
		e := &Entry{Source: src, Comp: comp}
		size := SizeOf(e)
		if budget < 0 {
			budget = size + price - 1
		}
		New(budget).Put(keyN(1), e)
		keeps := budget == 0 || budget == 1<<20
		if want := size + price; keeps && e.Size != want || !keeps && e.Size != size {
			t.Errorf("budget %d: entry charged %d, SizeOf %d, price %d", budget, e.Size, size, price)
		}
		m, _, err := comp.Run(vm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		comp.HandBack(m)
		again, _, err := comp.Run(vm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if (again == m) != keeps {
			t.Errorf("budget %d: the second run rewound the first run's machine: %t, want %t", budget, again == m, keeps)
		}
	}

	lazy := &Entry{Kind: ArtifactLazy, Source: src, Comp: driver.MustCompile(src, driver.Options{}), Size: 77}
	New(0).Put(keyN(2), lazy)
	if lazy.Size != 77 {
		t.Errorf("a lazy entry was charged %d, not its own 77", lazy.Size)
	}
}
