// Evidence pin: every string the two provers can render — each
// happens-before chain, overlap sentence, deadlock, site reason and
// bounds fingerprint — hashed per cell against
// testdata/provers/evidence_hashes.json. internal/mhp and
// internal/absint keep verdicts and compact causes and render the prose
// on demand (DESIGN.md §14, §16); byte identity of that prose is their
// contract, and this file is what holds them to it. The hand-built
// schedules that reach the causes no compiler output has (Unknown,
// same-nest, write/write, broken exchange) are pinned from inside
// internal/mhp in the same format. After touching either package run
//
//	make plan-guard race-sweep
//
// and refresh only for a deliberate wording change:
//
//	go test -run TestEvidencePinned -update . ./internal/mhp
//
// -evidence-dump <dir> writes each cell's text, for diffing two commits.
package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/mhp"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/source"
)

var evidenceDump = flag.String("evidence-dump", "", "write the text behind each evidence hash to this directory")

func writeRaces(w io.Writer, r *mhp.Result) {
	if r == nil {
		return
	}
	for _, p := range r.Pairs {
		fmt.Fprintf(w, "pair %d %d %s ww=%t\n  %s\n  %s\n",
			p.FirstEvent, p.SecondEvent, p.Verdict, p.WriteWrite, p, p.Overlap())
	}
	for _, d := range r.Deadlocks {
		fmt.Fprintf(w, "deadlock %s\n", d)
	}
	fmt.Fprintf(w, "census %d ordered %d race %d unknown; %d computes %d sends %d recvs %d barriers\n",
		r.NumOrdered, r.NumRace, r.NumUnknown, r.Computes, r.Sends, r.Recvs, r.Barriers)
	fmt.Fprintf(w, "err %v\n", r.Err())
}

func writeBounds(w io.Writer, r *absint.Result) {
	if r == nil {
		return
	}
	for _, s := range r.Sites {
		fmt.Fprintf(w, "site %d %s faildim=%d shift=%d\n  %s\n", s.ID, s.Verdict, s.FailDim, s.FaultShift, s.Reason())
	}
	fmt.Fprintf(w, "fingerprint %s\nerr %v\n", r.Fingerprint(), r.Err())
}

func distributed(procs int) *comm.Options {
	co := comm.DefaultOptions(procs)
	return &co
}

// evidenceCells renders every pinned cell: cell name → text.
func evidenceCells(t *testing.T) map[string]string {
	t.Helper()
	cells := map[string]string{}
	compile := func(cell, src string, opt driver.Options) *driver.Compilation {
		c, err := driver.Compile(src, opt)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		return c
	}
	read := func(path string) string {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	heat := read(filepath.Join("testdata", "heat.za"))

	// The benchmarks over the whole ladder, sequential and distributed.
	for _, b := range programs.All() {
		for _, lvl := range core.AllLevels() {
			for _, procs := range []int{1, 2, 4} {
				cell := fmt.Sprintf("%s/%s/p%d", b.Name, lvl, procs)
				opt := driver.Options{Level: lvl}
				if procs > 1 {
					opt.Comm = distributed(procs)
				}
				c := compile(cell, b.Source, opt)
				var buf bytes.Buffer
				writeRaces(&buf, c.Races)
				writeBounds(&buf, c.Bounds)
				cells[cell] = buf.String()
			}
		}
	}

	// The -racefault self-test's three seeded schedule bugs.
	hc := compile("heat", heat, driver.Options{Level: core.C2F3, Comm: distributed(4)})
	for _, kind := range mhp.FaultKinds() {
		bad, err := mhp.Inject(mhp.BuildSchedule(hc.LIR, 4), kind)
		if err != nil {
			t.Fatalf("racefault %s: %v", kind, err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "seeded %s\n", strings.Join(bad.Faults, "; "))
		writeRaces(&buf, mhp.Analyze(bad))
		cells["racefault/heat/c2+f3/p4/"+kind] = buf.String()
	}

	// -provefault: the perturbed site's reason, and the message the
	// bounds cross-check rejects it with.
	tomcatv, _ := programs.ByName("tomcatv")
	for _, pf := range []struct {
		name, src string
		lvl       core.Level
	}{{"heat", heat, core.C2F3}, {"tomcatv", tomcatv.Source, core.C2F4}} {
		for n := 1; n <= 3; n++ {
			cell := fmt.Sprintf("provefault/%s/%s/%d", pf.name, pf.lvl, n)
			c := compile(cell, pf.src, driver.Options{Level: pf.lvl, ProveFault: n})
			var buf bytes.Buffer
			writeBounds(&buf, c.Bounds)
			_, err := driver.Compile(pf.src, driver.Options{Level: pf.lvl, ProveFault: n, Check: true})
			fmt.Fprintf(&buf, "check %v\n", err)
			cells[cell] = buf.String()
		}
	}

	// The site reasons no well-formed source reaches (lowering widens
	// every allocation to cover its references), on handcrafted LIR: an
	// empty sweep, a definite escape, a store shared by two nests whose
	// joined hull is no longer exact, and a reference outside any nest;
	// then the empty sweep and a site at the allocation's upper edge
	// (shifted down, not up) under -provefault.
	region := func(lo, hi int) *sema.Region { return &sema.Region{Lo: []int{lo}, Hi: []int{hi}} }
	store := func(line int) *lir.NestStmt {
		return &lir.NestStmt{LHS: "B", RHS: &air.ConstExpr{Val: 1}, Pos: source.Pos{Line: line, Col: 3}}
	}
	nest := func(r *sema.Region, s *lir.NestStmt) *lir.Nest {
		return &lir.Nest{Region: r, Order: []int{1}, Body: []*lir.NestStmt{s}}
	}
	shared := store(13)
	lp := &lir.Program{
		Name: "edges",
		Source: &air.Program{
			Arrays:  map[string]*air.ArrayInfo{"B": {Name: "B", Declared: region(1, 7), Alloc: region(1, 7)}},
			Scalars: map[string]*air.ScalarInfo{},
		},
		Procs: map[string]*lir.Proc{"main": {Name: "main", Body: []lir.Node{
			nest(region(5, 4), store(11)),
			nest(region(1, 8), store(12)),
			nest(region(1, 7), shared), nest(region(1, 8), shared),
			&lir.ScalarAssign{LHS: "s", RHS: &air.RefExpr{Ref: air.Ref{Array: "B", Off: air.Offset{0}}}, Pos: source.Pos{Line: 14, Col: 3}},
			nest(region(2, 7), store(15)),
		}}},
	}
	for n := 0; n <= 2; n++ {
		var buf bytes.Buffer
		writeBounds(&buf, absint.AnalyzeOpts(lp, absint.Options{FaultSite: n}))
		cells[fmt.Sprintf("bounds-edges/fault%d", n)] = buf.String()
	}

	// ROADMAP item 3's reproducer: comm leaves the pipelined receives of
	// A0's halo below the nest fusion moved a reader into, and the
	// analyzer rejects the schedule. Regenerate when comm is fixed.
	halo := read(filepath.Join("testdata", "provers", "halo_race.za"))
	_, err := driver.Compile(halo, driver.Options{Level: core.C2F3, Comm: distributed(2)})
	hr := compile("halo-race", halo, driver.Options{Level: core.C2F3, Comm: distributed(2), NoRace: true})
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "compile %v\n", err)
	writeRaces(&buf, mhp.Analyze(mhp.BuildSchedule(hr.LIR, 2)))
	cells["halo-race/c2+f3/p2"] = buf.String()
	return cells
}

func TestEvidencePinned(t *testing.T) {
	path := filepath.Join("testdata", "provers", "evidence_hashes.json")
	got := map[string]string{}
	for cell, text := range evidenceCells(t) {
		sum := sha256.Sum256([]byte(text))
		got[cell] = hex.EncodeToString(sum[:])
		if *evidenceDump != "" {
			name := filepath.Join(*evidenceDump, strings.ReplaceAll(cell, "/", "_")+".txt")
			if err := os.WriteFile(name, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *updatePlans {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (refresh with go test -run TestEvidencePinned -update)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cells rendered, %d pinned", len(got), len(want))
	}
	for cell, g := range got {
		if w, ok := want[cell]; !ok {
			t.Errorf("%s: not pinned (refresh deliberately with -update)", cell)
		} else if g != w {
			t.Errorf("%s: rendered evidence changed: %s, pinned %s (-evidence-dump shows the text)", cell, g[:12], w[:12])
		}
	}
}

// The one CLI-level golden: what a user reading the provers' notes sees.
func TestZpllintEvidenceGolden(t *testing.T) {
	path := filepath.Join("testdata", "provers", "zpllint_tomcatv_c2f4_p2.golden")
	out, errOut, err := runTool(t, "zpllint", "-bench", "tomcatv", "-O", "c2+f4", "-p", "2", "-race", "-bounds")
	if err != nil {
		t.Fatalf("zpllint: %v\n%s", err, errOut)
	}
	if *updatePlans {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("zpllint -race -bounds notes changed (refresh deliberately with -update); got:\n%s", out)
	}
}

// A static exchange defect inside a loop is one defect however many
// loop copies replay it: flipping the direction of both copies of
// heat's message 1 used to report the same mis-pairing twice (only the
// count-mismatch kind was deduplicated).
func TestLoopDefectReportedOnce(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F3, Comm: distributed(4)})
	if err != nil {
		t.Fatal(err)
	}
	s := mhp.BuildSchedule(c.LIR, 4)
	copies := 0
	for _, e := range s.Events {
		if e.Kind == mhp.EvSend && e.MsgID == 1 {
			for i := range e.Off {
				e.Off[i] = -e.Off[i]
			}
			copies++
		}
	}
	if copies != 2 {
		t.Fatalf("message 1 has %d send events, want the loop's two copies", copies)
	}
	res := mhp.Analyze(s)
	if len(res.Deadlocks) != 1 || !strings.Contains(res.Deadlocks[0].Message, "never produces") {
		t.Errorf("deadlocks = %v, want the mis-pairing once", res.Deadlocks)
	}
}
