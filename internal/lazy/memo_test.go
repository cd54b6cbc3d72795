package lazy

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/proctest"
)

// collideAll is the memo hash under which every shape lands in one
// bucket: what a hash collision on every lookup would look like.
func collideAll([]uint64) uint64 { return 0 }

// TestSteadyStateAllocs caps a cached VM Eval of the Jacobi sweep,
// recording included: the memo replaces canonicalization, the resident
// machine replaces vm.New, and what is left is the recorded expression
// nodes, the batch bookkeeping and the run (357 allocations before
// both, 36 while the Eval still built per-op maps to check Temps and
// find escapes).
func TestSteadyStateAllocs(t *testing.T) {
	e := NewEngine(Options{Level: core.C2F4S})
	R2 := R(1, 10, 1, 10)
	cur, nxt := e.Array("cur", R2), e.Array("nxt", R2)
	res := e.Scalar("res", 0)
	cur.Assign(nil, Index(1))
	for i := 0; i < 3; i++ {
		cur, nxt = jacobiStep(e, cur, nxt, res)
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		cur, nxt = jacobiStep(e, cur, nxt, res)
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 31 {
		t.Errorf("steady-state Jacobi sweep + Eval: %.0f allocations, ceiling 31", allocs)
	}
}

// TestCanonMemoExact: two batches that differ in one structural detail
// never share a memo entry. Each pair is evaluated in both orders on one
// engine; the second Eval must miss the memo and compute its own answer,
// and repeating the first must hit it (the memo does work). The whole
// table runs again with every shape hashing alike, so that only the
// word-for-word comparison keeps the pairs apart.
func TestCanonMemoExact(t *testing.T) {
	r := R(1, 4)
	fill := func(h *Handle, v float64) {
		if err := h.SetValues([]float64{v, v, v, v}); err != nil {
			t.Fatal(err)
		}
	}
	first := func(h *Handle) string {
		v, err := h.Value(1)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(v)
	}
	scalar := func(s *ScalarHandle) string {
		v, err := s.Value()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(v)
	}
	eval := func(e *Engine) {
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
	}
	type side struct {
		want string
		run  func(e *Engine, out *bytes.Buffer) string
	}
	quotient := func(c float64) side {
		return side{fmt.Sprint(1 / c), func(e *Engine, _ *bytes.Buffer) string {
			a := e.Array("a", r)
			a.Assign(nil, Div(Const(1), Const(c)))
			return first(a)
		}}
	}
	increment := func(self bool) side {
		want := "11"
		if self {
			want = "2"
		}
		return side{want, func(e *Engine, _ *bytes.Buffer) string {
			a, b := e.Array("a", r), e.Array("b", r)
			fill(a, 1)
			fill(b, 10)
			src := b
			if self {
				src = a
			}
			a.Assign(nil, Add(src, Const(1)))
			return first(a)
		}}
	}
	sumOf := func(temp bool) side {
		return side{"8", func(e *Engine, _ *bytes.Buffer) string {
			var h *Handle
			if temp {
				h = e.Temp("h", r)
			} else {
				h = e.Array("h", r)
			}
			s := e.Scalar("s", 0)
			h.Assign(nil, Const(2))
			s.Sum(r, h)
			return scalar(s)
		}}
	}
	// Under MaxBatchOps 1 the temp's write is a batch of its own, and
	// whether the next batch reads it flips the temp's escape bit. A
	// memo hit of the non-escaping compilation would lose its value.
	escaping := func(read bool) side {
		want := "5"
		if read {
			want = "6"
		}
		return side{want, func(e *Engine, _ *bytes.Buffer) string {
			tmp, b := e.Temp("t", r), e.Array("b", r)
			tmp.Assign(nil, Const(3))
			if read {
				b.Assign(nil, Mul(tmp, Const(2)))
			} else {
				b.Assign(nil, Const(5))
			}
			return first(b)
		}}
	}
	say := func(word string) side {
		return side{word + " 7\n", func(e *Engine, out *bytes.Buffer) string {
			s := e.Scalar("s", 7)
			e.Writeln(word, s)
			eval(e)
			return out.String()
		}}
	}
	extreme := func(max bool) side {
		want := "1"
		if max {
			want = "4"
		}
		return side{want, func(e *Engine, _ *bytes.Buffer) string {
			a := e.Array("a", r)
			if err := a.SetValues([]float64{3, 1, 4, 2}); err != nil {
				t.Fatal(err)
			}
			s := e.Scalar("s", 0)
			if max {
				s.MaxOf(r, a)
			} else {
				s.MinOf(r, a)
			}
			return scalar(s)
		}}
	}
	pairs := []struct {
		name string
		opt  Options
		x, y side
	}{
		{"+0 vs -0", Options{Level: core.C2}, quotient(0), quotient(math.Copysign(0, -1))},
		{"a := f(a) vs a := f(b)", Options{Level: core.C2}, increment(true), increment(false)},
		{"temp vs array target", Options{Level: core.C2}, sumOf(true), sumOf(false)},
		{"escape bit", Options{Level: core.C2, MaxBatchOps: 1}, escaping(false), escaping(true)},
		{"writeln strings", Options{Level: core.C2}, say("alpha"), say("beta")},
		{"MaxOf vs MinOf", Options{Level: core.C2}, extreme(true), extreme(false)},
	}
	for _, collide := range []bool{false, true} {
		for _, p := range pairs {
			for _, order := range [][]side{{p.x, p.y, p.x}, {p.y, p.x, p.y}} {
				var out bytes.Buffer
				opt := p.opt
				opt.Out = &out
				e := NewEngine(opt)
				if collide {
					e.memo.hash = collideAll
				}
				for i, s := range order {
					out.Reset()
					before := e.memoHits
					if got := s.run(e, &out); got != s.want {
						t.Errorf("%s (collide %v), Eval %d: got %q, want %q", p.name, collide, i+1, got, s.want)
					}
					hit := e.memoHits > before
					if i == 1 && hit {
						t.Errorf("%s (collide %v): the second of the pair hit the first's memo entry", p.name, collide)
					}
					if i == 2 && !hit {
						t.Errorf("%s (collide %v): repeating the first missed the memo", p.name, collide)
					}
				}
			}
		}
	}
}

// TestResidentMachineStartsZeroed: a batch may read a Temp cell that it
// writes only later (b[4] reads t[5] here), which a fresh machine holds
// as 0. Every Eval after the first runs on the resident machine (or the
// native backend's resident worker) the previous one left t[5] = 2, 3,
// ... in, and must still read 0.
func TestResidentMachineStartsZeroed(t *testing.T) {
	opts := []Options{{Level: core.Baseline}, {Level: core.C2F4S}}
	if backend.Available() {
		opts = append(opts, Options{Level: core.Baseline, Backend: driver.BackendGo, ArtifactDir: t.TempDir()})
	}
	for _, opt := range opts {
		e := NewEngine(opt)
		defer e.Close()
		b := e.Array("b", R(1, 8))
		k := e.Scalar("k", 0)
		for i := 0; i < 4; i++ {
			if err := k.Set(float64(2 + i)); err != nil {
				t.Fatal(err)
			}
			tmp := e.Temp("t", R(1, 8))
			tmp.Assign(R(1, 4), Const(1))
			b.Assign(R(1, 4), tmp.At(1))
			tmp.Assign(R(5, 8), k)
			b.Assign(R(5, 8), tmp)
			got, err := b.Values()
			if err != nil {
				t.Fatal(err)
			}
			if want := []float64{1, 1, 1, 0, 2 + float64(i), 2 + float64(i), 2 + float64(i), 2 + float64(i)}; !slices.Equal(got, want) {
				t.Errorf("%v %v, Eval %d: b = %v, want %v", opt.Backend, opt.Level, i+1, got, want)
			}
		}
		if e.machineBuilds+e.workerStarts != 1 {
			t.Errorf("%v %v: %d machines built and %d workers started for 4 Evals of one shape, want 1",
				opt.Backend, opt.Level, e.machineBuilds, e.workerStarts)
		}
	}
}

// sweepEngine runs sweeps double-buffered Jacobi steps over an n×n grid
// on e and returns the final grid.
func sweepEngine(t *testing.T, e *Engine, n, sweeps int) []float64 {
	t.Helper()
	full, inner := R(1, n, 1, n), R(2, n-1, 2, n-1)
	cur, nxt := e.Array("cur", full), e.Array("nxt", full)
	res := e.Scalar("res", 0)
	cur.Assign(nil, Mul(Index(1), Index(2)))
	nxt.Assign(nil, Mul(Index(1), Index(2)))
	for i := 0; i < sweeps; i++ {
		nxt.Assign(inner, Mul(Const(0.25),
			Add(Add(cur.At(-1, 0), cur.At(1, 0)), Add(cur.At(0, -1), cur.At(0, 1)))))
		res.MaxOf(inner, Abs(Sub(nxt, cur)))
		cur, nxt = nxt, cur
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := cur.Values()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkResident fails unless the engine's resident records and memo
// entries are exactly for keys its cache holds.
func checkResident(t *testing.T, what string, e *Engine) {
	t.Helper()
	for k := range e.resident {
		if _, ok := e.cache.Peek(k); !ok {
			t.Errorf("%s: a machine is kept for evicted key %s", what, k)
		}
	}
	for _, b := range e.memo.buckets {
		for _, me := range b {
			if _, ok := e.cache.Peek(me.key); !ok {
				t.Errorf("%s: a memo entry names evicted key %s", what, me.key)
			}
		}
	}
	if got, want := int64(len(e.resident)), e.cache.Stats().Entries; got != want {
		t.Errorf("%s: %d resident records for %d cached entries", what, got, want)
	}
}

// TestCacheBytesBoundsMachines: a resident machine's storage, and a
// resident worker's state mapping, count toward its entry's size. An
// engine whose budget is below one machine's footprint (though above the
// entry's size without it) caches nothing, keeps no machine, worker or
// memo entry — a native run gets a worker for that run only — and still
// computes every sweep right. Eviction and ClearCache drop the machines,
// workers and memo entries of the keys they drop.
func TestCacheBytesBoundsMachines(t *testing.T) {
	const n, sweeps = 40, 6
	opts := []Options{{Level: core.C2F4S}}
	if backend.Available() {
		opts = append(opts, Options{Level: core.C2F4S, Backend: driver.BackendGo, ArtifactDir: t.TempDir()})
	}
	for _, opt := range opts {
		engine := func(cacheBytes int64) *Engine {
			o := opt
			o.CacheBytes = cacheBytes
			e := NewEngine(o)
			t.Cleanup(func() { e.Close() })
			return e
		}
		ref := engine(0)
		want := sweepEngine(t, ref, n, sweeps)
		footprint := int64(2 * n * n * 8)
		var withoutMachines int64
		for k := range ref.resident {
			el, _ := ref.cache.Peek(k)
			withoutMachines = max(withoutMachines, ccache.SizeOf(el))
		}
		budget := footprint - 1
		if withoutMachines >= budget {
			t.Fatalf("%v: largest entry without its machine is %d bytes, not below the %d-byte budget", opt.Backend, withoutMachines, budget)
		}

		small := engine(budget)
		if got := sweepEngine(t, small, n, sweeps); !slices.Equal(got, want) {
			t.Errorf("%v: a machine-less engine computed a different grid", opt.Backend)
		}
		if st := small.CacheStats(); st.Entries != 0 || st.TooLarge == 0 {
			t.Errorf("%v: cache below one machine's footprint: %+v, want nothing cached and refusals counted", opt.Backend, st)
		}
		if len(small.resident) != 0 || len(small.memo.buckets) != 0 {
			t.Errorf("%v: %d machines and %d memo buckets kept for nothing cached", opt.Backend, len(small.resident), len(small.memo.buckets))
		}
		if kids, err := proctest.Children(); err == nil && len(kids) != liveWorkers(ref) {
			t.Errorf("%v: children %v, want only the unbounded engine's %d workers", opt.Backend, kids, liveWorkers(ref))
		}

		// Room for one sweep compilation with its machine, not two shapes:
		// the initialising batch and the sweep evict each other.
		one := engine(footprint + 3*withoutMachines/2)
		if got := sweepEngine(t, one, n, sweeps); !slices.Equal(got, want) {
			t.Errorf("%v: an evicting engine computed a different grid", opt.Backend)
		}
		if one.CacheStats().Evictions == 0 {
			t.Errorf("%v: no eviction with room for one entry: %+v", opt.Backend, one.CacheStats())
		}
		checkResident(t, "after evictions", one)
		one.ClearCache()
		checkResident(t, "after ClearCache", one)
		if len(one.memo.buckets) != 0 {
			t.Errorf("%v: ClearCache kept %d memo buckets", opt.Backend, len(one.memo.buckets))
		}
		if got := sweepEngine(t, one, n, sweeps); !slices.Equal(got, want) {
			t.Errorf("%v: after ClearCache the engine computed a different grid", opt.Backend)
		}
		if kids, err := proctest.Children(); err == nil && len(kids) != liveWorkers(ref)+liveWorkers(one) {
			t.Errorf("%v: children %v, want the %d workers the engines keep", opt.Backend, kids, liveWorkers(ref)+liveWorkers(one))
		}
	}
}

// liveWorkers counts the live workers an engine keeps.
func liveWorkers(e *Engine) int {
	n := 0
	for _, r := range e.resident {
		if r.native != nil && r.native.w.Alive() {
			n++
		}
	}
	return n
}
