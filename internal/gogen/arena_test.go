package gogen_test

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/programs"
)

// TestArenaLayout: every benchmark at the ladder ends, at its default
// size and at the run-go bench's (eight times, ep sixteen), cut each
// array that owns storage from the arena as ArenaLayout says: the slabs are
// disjoint, each is declared arena[o:o+n:o+n] with n its Alloc.Size(),
// each starts on a 64-byte line, no two start at the same offset in a
// 4 KiB page, and the huge-page advice is emitted exactly when the
// arena spans a 2 MiB huge page (on Linux; elsewhere the arena is a
// make and never advised). Heat emitted as a worker has no arena at all:
// its arrays are slabs of the state mapping.
func TestArenaLayout(t *testing.T) {
	type emission struct {
		name   string
		src    string
		worker bool
		opt    driver.Options
	}
	var cases []emission
	for _, b := range programs.All() {
		scale := int64(8)
		if b.Rank == 1 {
			scale = 16
		}
		for _, n := range []int64{b.DefaultSize, scale * b.DefaultSize} {
			for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
				cases = append(cases, emission{fmt.Sprintf("%s n=%d at %v", b.Name, n, lvl), b.Source, false,
					driver.Options{Level: lvl, Configs: map[string]int64{b.SizeConfig: n}}})
			}
		}
	}
	heat, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, emission{"heat worker", string(heat), true, driver.Options{Level: core.Baseline}})

	slabDecl := regexp.MustCompile(`(?m)^var (za_\w+) = zaM_slab\((\d+), (\d+)\) //`)
	arenaLen := regexp.MustCompile(`var zaM_arena = (?:zaM_map\(|make\(\[\]float64, )(\d+)\)`)
	goName := strings.NewReplacer(".", "_", "$", "_")
	advised := map[bool]int{}
	for _, cs := range cases {
		c, err := driver.Compile(cs.src, cs.opt)
		if err != nil {
			t.Fatalf("%s: %v", cs.name, err)
		}
		if cs.worker {
			src, err := gogen.EmitWorker(c.LIR, c.Bounds)
			if err != nil {
				t.Fatalf("%s: %v", cs.name, err)
			}
			if strings.Contains(src, "zaM_") {
				t.Errorf("%s: a worker emits an arena", cs.name)
			}
			continue
		}
		arrays, slabs, words := gogen.ArenaLayout(c.LIR)
		src, err := gogen.EmitBounds(c.LIR, c.Bounds)
		if err != nil {
			t.Fatalf("%s: %v", cs.name, err)
		}

		want := 0
		for _, a := range c.LIR.Source.Arrays {
			if !a.Contracted {
				want++
			}
		}
		if len(arrays) != want || len(slabs) != want {
			t.Errorf("%s: %d arrays and %d slabs in the arena, want %d", cs.name, len(arrays), len(slabs), want)
			continue
		}
		if want == 0 {
			if strings.Contains(src, "zaM_") {
				t.Errorf("%s: an arena with no arrays is emitted", cs.name)
			}
			continue
		}
		decls := map[string][2]int{}
		for _, m := range slabDecl.FindAllStringSubmatch(src, -1) {
			o, _ := strconv.Atoi(m[2])
			n, _ := strconv.Atoi(m[3])
			decls[m[1]] = [2]int{o, n}
		}
		if len(decls) != want {
			t.Errorf("%s: %d slab declarations, want %d", cs.name, len(decls), want)
		}
		if strings.Count(src, "return zaM_arena[o : o+n : o+n]") != 1 {
			t.Errorf("%s: slabs are not cut as arena[o:o+n:o+n] in one helper", cs.name)
		}
		if m := arenaLen.FindStringSubmatch(src); m == nil || m[1] != strconv.Itoa(words) {
			t.Errorf("%s: arena of %v words emitted, layout says %d", cs.name, m, words)
		}

		end, lines := 0, map[int]string{}
		for k, n := range arrays {
			size := c.LIR.Source.Arrays[n].Alloc.Size()
			if d, ok := decls["za_"+goName.Replace(n)]; !ok || d != [2]int{slabs[k], size} {
				t.Errorf("%s: %s declared as zaM_slab%v, want (%d, %d)", cs.name, n, d, slabs[k], size)
			}
			if slabs[k] < end {
				t.Errorf("%s: %s's slab at word %d overlaps the previous one, which ends at %d", cs.name, n, slabs[k], end)
			}
			end = slabs[k] + size
			if at := 8 * slabs[k]; at%64 != 0 {
				t.Errorf("%s: %s's slab starts at byte %d, not on a 64-byte line", cs.name, n, at)
			} else if other, ok := lines[at%4096]; ok {
				t.Errorf("%s: %s and %s start at the same offset %d mod 4096", cs.name, other, n, at%4096)
			} else {
				lines[at%4096] = n
			}
		}
		if end > words {
			t.Errorf("%s: the last slab ends at word %d, past the arena's %d", cs.name, end, words)
		}
		huge := 8*words >= 2<<20
		if got := strings.Contains(src, "MADV_HUGEPAGE"); got != (huge && runtime.GOOS == "linux") {
			t.Errorf("%s: arena of %d bytes advised onto huge pages: %v", cs.name, 8*words, got)
		}
		advised[huge]++
	}
	if advised[true] == 0 || advised[false] == 0 {
		t.Errorf("arenas below and above a huge page: %d and %d; both sides must be covered", advised[false], advised[true])
	}
}
