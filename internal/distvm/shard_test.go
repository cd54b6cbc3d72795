package distvm_test

// Tests of the shard seam: a distvm processor is the sequential VM
// compiled over its owned block, so a one-processor run IS the
// sequential run, and halo widths come from the same reference walk
// the shard checks its storage against.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/vm"
)

// TestSingleShardIsSequential pins "shard mode is the same
// interpreter": for every benchmark at every ladder level, the
// sequential compilation run on one distvm processor produces the
// sequential VM's transcript byte for byte, its arrays and scalars
// (reduction results included — a one-part combine is the part) bit
// for bit, and its step count and memory footprint.
func TestSingleShardIsSequential(t *testing.T) {
	for _, b := range programs.All() {
		size := int64(16)
		if b.Rank == 1 {
			size = 128
		}
		cfg := map[string]int64{b.SizeConfig: size}
		for _, lvl := range core.AllLevels() {
			b, lvl := b, lvl
			t.Run(b.Name+"/"+lvl.String(), func(t *testing.T) {
				c, err := driver.Compile(b.Source, driver.Options{Level: lvl, Configs: cfg})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				var seqOut, distOut bytes.Buffer
				seq, res, err := vm.Run(c.LIR, vm.Options{Out: &seqOut})
				if err != nil {
					t.Fatalf("sequential run: %v", err)
				}
				dm, err := distvm.Run(c.LIR, distvm.Options{Procs: 1, Out: &distOut})
				if err != nil {
					t.Fatalf("one-processor run: %v", err)
				}
				if seqOut.String() != distOut.String() {
					t.Errorf("transcripts differ:\nseq:  %q\ndist: %q", seqOut.String(), distOut.String())
				}
				arrays := 0
				for name, info := range c.AIR.Arrays {
					if info.Contracted {
						continue
					}
					arrays++
					want, got := seq.ArrayData(name), dm.Gather(name)
					if len(want) != len(got) {
						t.Errorf("%s: size %d vs %d", name, len(got), len(want))
						continue
					}
					for i := range want {
						if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
							t.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
							break
						}
					}
				}
				if arrays == 0 && lvl == core.Baseline {
					t.Error("no arrays compared — test is vacuous")
				}
				for name, want := range seq.Scalars() {
					got, ok := dm.Scalar(name)
					if !ok || math.Float64bits(want) != math.Float64bits(got) {
						t.Errorf("scalar %s = %v (present %v), want %v", name, got, ok, want)
					}
				}
				if dm.Steps() != res.Steps {
					t.Errorf("steps = %d, want the sequential %d", dm.Steps(), res.Steps)
				}
				if dm.MemoryFootprint() != seq.MemoryFootprint() {
					t.Errorf("memory = %d bytes, want the sequential %d", dm.MemoryFootprint(), seq.MemoryFootprint())
				}
			})
		}
	}
}

// TestPreloadHalo is the regression test for halo widths that ignored
// Nest.Preloads: scalar replacement moves the twice-read A@(1) and
// A@(-1) out of the statement into preloads, and a halo sized from the
// statement alone left the interior ghost row unallocated ("proc 0
// reads A[5] outside its halo").
func TestPreloadHalo(t *testing.T) {
	src := `
program preload;
config n : integer = 16;
region R = [1..n];
region I = [2..n-1];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 * 1.0;
  [I] B := A@(1)*A@(1) + A@(-1)*A@(-1);
  s := +<< [I] B;
  writeln(s);
end;
`
	for _, replace := range []bool{false, true} {
		c := matrix.Program{Name: "preload", Src: src}.At(core.Baseline, 0)
		c.Opt.ScalarReplace, c.Procs = replace, []int{2, 4}
		if out := matrix.Check(t, c); out != "2506\n" {
			t.Fatalf("ScalarReplace=%v: sequential output %q, want 2506", replace, out)
		}
	}
}
