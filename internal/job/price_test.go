package job

import (
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/vm"
)

// slabDecl matches a one-shot program's slab declaration,
// zaM_slab(offset, words).
var slabDecl = regexp.MustCompile(`(?m)^var za_\w+ = zaM_slab\(\d+, (\d+)\) //`)

// TestPriceExact pins the price to what each engine allocates: the
// VM's footprint and the emitted arena's slabs (gaps are placement, not
// storage) for every benchmark at every ladder level, and distvm's
// footprint, halos included, at p = 1, 2 and 4 on the sequential
// compilation and on the one compiled for that processor count.
func TestPriceExact(t *testing.T) {
	for _, b := range programs.All() {
		size := int64(16)
		if b.Rank == 1 {
			size = 128
		}
		cfg := map[string]int64{b.SizeConfig: size}
		for _, lvl := range core.AllLevels() {
			t.Run(b.Name+"/"+lvl.String(), func(t *testing.T) {
				seq, err := driver.Compile(b.Source, driver.Options{Level: lvl, Configs: cfg})
				if err != nil {
					t.Fatal(err)
				}
				price, err := Price(seq, RunSpec{})
				if err != nil {
					t.Fatal(err)
				}
				m, err := vm.New(seq.LIR, vm.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := m.MemoryFootprint(); got != price {
					t.Errorf("vm allocates %d bytes, priced %d", got, price)
				}
				src, err := gogen.EmitBounds(seq.LIR, seq.Bounds)
				if err != nil {
					t.Fatal(err)
				}
				var slabs int64
				for _, d := range slabDecl.FindAllStringSubmatch(src, -1) {
					n, _ := strconv.ParseInt(d[1], 10, 64)
					slabs += 8 * n
				}
				if slabs != price {
					t.Errorf("the arena's slabs hold %d bytes, priced %d", slabs, price)
				}

				type compiled struct {
					procs int // the processor count c was compiled for
					c     *driver.Compilation
				}
				for _, p := range []int{1, 2, 4} {
					comps := []compiled{{1, seq}}
					if p > 1 {
						co, err := CommOptions(p, "")
						if err != nil {
							t.Fatal(err)
						}
						c, err := driver.Compile(b.Source, driver.Options{Level: lvl, Configs: cfg, Comm: co})
						if err != nil {
							t.Fatal(err)
						}
						comps = append(comps, compiled{p, c})
					}
					for _, cc := range comps {
						price, err := Price(cc.c, RunSpec{Dist: true, Procs: p})
						if err != nil {
							t.Fatal(err)
						}
						dm, err := distvm.Run(cc.c.LIR, distvm.Options{Procs: p})
						if err != nil {
							t.Fatal(err)
						}
						if got := dm.MemoryFootprint(); got != price {
							t.Errorf("p=%d (compiled for %d): distvm allocates %d bytes, priced %d", p, cc.procs, got, price)
						}
					}
				}
			})
		}
	}
}

// TestPriceRefusesOverflow: frac at n = 2^32 asks for 2^64 elements an
// array, which wrapped to none, and at n = 3037000500 for more than
// 2^63 bytes, which wrapped negative. Both compile; pricing refuses
// them as a compile error, and so do a run, before anything is
// allocated, and the native emission.
func TestPriceRefusesOverflow(t *testing.T) {
	b, _ := programs.ByName("frac")
	for _, n := range []int64{1 << 32, 3037000500} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			ctx := context.Background()
			c, err := Compile(ctx, b.Source, driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": n}})
			if err != nil {
				t.Fatal(err)
			}
			for _, rs := range []RunSpec{{}, {Dist: true, Procs: 2}} {
				price, err := Price(c, rs)
				if Classify(err) != ClassCompile || !errors.Is(err, sema.ErrTooLarge) {
					t.Fatalf("%+v: priced %d bytes (%v), want a compile-class refusal", rs, price, err)
				}
			}
			res, err := Run(ctx, c, RunSpec{MaxSteps: 1}, nil, nil)
			if Classify(err) != ClassCompile || res.Steps != 0 {
				t.Errorf("run: %v after %d steps, want a compile-class refusal before any", err, res.Steps)
			}
			if _, err := gogen.EmitBounds(c.LIR, c.Bounds); !errors.Is(err, sema.ErrTooLarge) {
				t.Errorf("emission: %v, want a refusal", err)
			}
		})
	}
}

// TestHostilePrice: every rank-2 benchmark at n = 200000, uncontracted,
// asks for terabytes. Compiling it is cheap, and so is its price, which
// exists before anything runs: an admission check can refuse it.
func TestHostilePrice(t *testing.T) {
	for _, b := range programs.All() {
		if b.Rank != 2 {
			continue
		}
		t0 := time.Now()
		c, err := driver.Compile(b.Source, driver.Options{Level: core.Baseline, Configs: map[string]int64{b.SizeConfig: 200000}})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		compile := time.Since(t0)
		price, err := Price(c, RunSpec{})
		if err != nil || price < 1e12 {
			t.Errorf("%s: priced %d bytes (%v), want at least 1 TB", b.Name, price, err)
		}
		arrays := float64(len(c.LIR.Source.Arrays))
		if allocs := testing.AllocsPerRun(10, func() { Price(c, RunSpec{}) }); allocs > arrays {
			t.Errorf("%s: pricing allocates %v times, more than its %v arrays", b.Name, allocs, arrays)
		}
		t.Logf("%s: %.1f TB after a %v compile", b.Name, float64(price)/1e12, compile)
	}
}

// arrayless reduces over [1..n, 1..n] without an array: its price in
// storage is 0 at any n, so only its work can refuse it. tworeds fuses
// two such reductions into one nest of two statements a point.
const (
	arrayless = `program arrayless;
config n : integer = 8;
region R = [1..n, 1..n];
var s : double;
proc main()
begin
  s := +<< [R] index1;
  writeln(s);
end;`
	tworeds = `program tworeds;
config n : integer = 8;
region R = [1..n, 1..n];
var s, t : double;
proc main()
begin
  s := +<< [R] index1;
  t := max<< [R] index2;
  writeln(s, t);
end;`
)

// TestPriceRefusesWorkOverflow: a sweep whose element-statements do not
// fit an int64 is refused like storage that does not. At n = 2^32 the
// arrayless reduction's points wrap to 0, at n = 3037000500 negative,
// and at n = 2^31 tworeds' 2^62 points fit but twice that does not; a
// wrapped count charged nothing, so the run never reached its budget
// and never polled its context. Each run is refused as a compile error
// before a step, on the VM, on distvm and before a native build. The
// test keeps its own deadline: a run that is not refused does not end.
func TestPriceRefusesWorkOverflow(t *testing.T) {
	for _, tc := range []struct {
		src string
		n   int64
	}{{arrayless, 1 << 32}, {arrayless, 3037000500}, {tworeds, 1 << 31}} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			c, err := Compile(ctx, tc.src, driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": tc.n}})
			if err != nil {
				t.Fatal(err)
			}
			store, err := backend.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, rs := range []RunSpec{{MaxSteps: 1000}, {Dist: true, Procs: 2, MaxSteps: 1000}, {Backend: driver.BackendGo}} {
				done := make(chan struct{})
				var res *Result
				go func() {
					defer close(done)
					res, err = Run(ctx, c, rs, io.Discard, store)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%+v: still running after 10 s", rs)
				}
				if Classify(err) != ClassCompile || !errors.Is(err, sema.ErrTooLarge) || res.Steps != 0 || res.Art != nil {
					t.Errorf("%+v: %v after %d steps (built: %v), want a compile-class refusal before any", rs, err, res.Steps, res.Art != nil)
				}
			}
		})
	}
}
