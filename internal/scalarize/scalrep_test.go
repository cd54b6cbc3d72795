package scalarize_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/programs"
	"repro/internal/vm"
)

const repeatedReads = `
program srep;
config n : integer = 16;
region R = [1..n, 1..n];
var A, B, C : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 * 0.5 + index2;
  [R] B := A * A + A;       -- A read three times per iteration
  [R] C := A + B * B;
  s := +<< [R] C;
  writeln(s);
end;
`

func TestScalarReplaceInstallsPreloads(t *testing.T) {
	c, err := driver.Compile(repeatedReads, driver.Options{Level: core.Baseline, ScalarReplace: true})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pr := range c.LIR.Procs {
		for _, n := range lir.Nests(pr.Body) {
			total += len(n.Preloads)
		}
	}
	if total == 0 {
		t.Fatal("no preloads installed")
	}
	out := lir.EmitC(c.LIR)
	if !strings.Contains(out, "scalar replacement") {
		t.Errorf("pseudo-C missing preload comment:\n%s", out)
	}
}

func TestScalarReplaceSoundness(t *testing.T) {
	want := runSR(t, repeatedReads, false)
	got := runSR(t, repeatedReads, true)
	if want != got {
		t.Errorf("scalar replacement changed results: %q vs %q", got, want)
	}
	for _, b := range programs.All() {
		cfg := map[string]int64{b.SizeConfig: 16}
		if b.Rank == 1 {
			cfg[b.SizeConfig] = 256
		}
		plain, err := driver.Compile(b.Source, driver.Options{Level: core.C2F3, Configs: cfg})
		if err != nil {
			t.Fatal(err)
		}
		srep, err := driver.Compile(b.Source, driver.Options{Level: core.C2F3, Configs: cfg, ScalarReplace: true})
		if err != nil {
			t.Fatal(err)
		}
		var a, bb bytes.Buffer
		if _, _, err := vm.Run(plain.LIR, vm.Options{Out: &a}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := vm.Run(srep.LIR, vm.Options{Out: &bb}); err != nil {
			t.Fatal(err)
		}
		if a.String() != bb.String() {
			t.Errorf("%s: scalar replacement changed results", b.Name)
		}
	}
}

// accTracer tallies memory accesses only.
type accTracer struct{ n int64 }

func (c *accTracer) Access(int64, bool)                               { c.n++ }
func (c *accTracer) Flops(int64)                                      {}
func (c *accTracer) Comm(string, air.Offset, int, air.CommPhase, int) {}
func (c *accTracer) Reduce()                                          {}

func TestScalarReplaceReducesAccesses(t *testing.T) {
	count := func(sr bool) int64 {
		c, err := driver.Compile(repeatedReads, driver.Options{Level: core.Baseline, ScalarReplace: sr})
		if err != nil {
			t.Fatal(err)
		}
		tr := &accTracer{}
		if _, _, err := vm.Run(c.LIR, vm.Options{Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		return tr.n
	}
	plain := count(false)
	srep := count(true)
	if srep >= plain {
		t.Errorf("scalar replacement did not reduce accesses: %d vs %d", srep, plain)
	}
}

func runSR(t *testing.T, src string, sr bool) string {
	t.Helper()
	c, err := driver.Compile(src, driver.Options{Level: core.Baseline, ScalarReplace: sr})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, _, err := vm.Run(c.LIR, vm.Options{Out: &out}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestScalarReplaceSkipsWrittenArrays: an array written in the nest
// must never be preloaded.
func TestScalarReplaceSkipsWrittenArrays(t *testing.T) {
	src := `
program wr;
region R = [1..8];
var A, B : [R] double;
proc main()
begin
  [R] A := 1.0;
  [R] B := A + A;   -- fused at c2? A written by first stmt in nest
end;
`
	c, err := driver.Compile(src, driver.Options{Level: core.C2F4, ScalarReplace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range c.LIR.Procs {
		for _, n := range lir.Nests(pr.Body) {
			written := map[string]bool{}
			for _, s := range n.Body {
				if !s.IsReduce && !s.Contracted {
					written[s.LHS] = true
				}
			}
			for _, pl := range n.Preloads {
				if written[pl.Array] {
					t.Errorf("preload of written array %s", pl.Array)
				}
			}
		}
	}
}
