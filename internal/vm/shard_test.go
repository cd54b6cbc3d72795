package vm_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/vm"
)

// lowHalf is a Shard owning indices lo..mid of a rank-1 program, with
// storage that reaches halo elements past its block.
type lowHalf struct {
	lo, mid, halo, allocHi int
}

func (s lowHalf) Local(string) *sema.Region {
	return &sema.Region{Lo: []int{s.lo}, Hi: []int{min(s.mid+s.halo, s.allocHi)}}
}

func (s lowHalf) Portion(r *sema.Region) *sema.Region {
	lo, hi := max(r.Lo[0], s.lo), min(r.Hi[0], s.mid)
	if lo > hi {
		return nil
	}
	return &sema.Region{Lo: []int{lo}, Hi: []int{hi}}
}

func (lowHalf) Comm(*lir.Comm, []float64) (func() error, error) {
	return func() error { return nil }, nil
}

func (lowHalf) AllCombine(part []float64, _ func(acc, next []float64)) ([]float64, error) {
	return part, nil
}

// TestShardStorageChecked: a shard sweeps only its portion over its
// local storage, and a reference that would leave that storage is
// rejected when the shard is built — accesses are flat positions, so
// nothing at run time would catch it.
func TestShardStorageChecked(t *testing.T) {
	src := `
program half;
region R = [1..8];
region I = [1..7];
var A, B : [R] double;
proc main()
begin
  [R] A := index1 * 1.0;
  [I] B := A@(1);
end;
`
	prog := compile(t, src, core.Baseline)
	m, err := vm.NewShard(prog, vm.Options{}, lowHalf{lo: 1, mid: 4, halo: 1, allocHi: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 8 { // two nests over 1..4
		t.Errorf("steps = %d, want 8", res.Steps)
	}
	// A[5] is this shard's ghost element; nobody filled it.
	if got := m.ArrayData("B"); len(got) != 5 || got[2] != 4 || got[3] != 0 {
		t.Errorf("B over local bounds = %v, want [2 3 4 0 0]", got)
	}

	_, err = vm.NewShard(prog, vm.Options{}, lowHalf{lo: 1, mid: 4, halo: 0, allocHi: 8})
	if err == nil || !strings.Contains(err.Error(), "outside its local storage") {
		t.Errorf("halo-less shard: got %v, want a local-storage error", err)
	}
}
