// Golden-plan regression tests: the exact fusion partition and
// contraction set the ladder chooses for every benchmark at every
// level, serialized as canonical plan specs under testdata/plans/.
// A change in the optimizer's decisions shows up as a readable JSON
// diff; refresh deliberately with
//
//	go test -run TestGoldenPlans -update
package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
)

var updatePlans = flag.Bool("update", false, "rewrite the golden plan specs and distributed hashes in testdata/plans")

func TestGoldenPlans(t *testing.T) {
	if *updatePlans {
		if err := os.MkdirAll(filepath.Join("testdata", "plans"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range programs.All() {
		for _, lvl := range core.AllLevels() {
			name := fmt.Sprintf("%s-%s.json", b.Name, lvl)
			path := filepath.Join("testdata", "plans", name)
			c, err := driver.Compile(b.Source, driver.Options{Level: lvl})
			if err != nil {
				t.Fatalf("%s at %s: %v", b.Name, lvl, err)
			}
			spec := core.Extract(c.Plan)
			got, err := spec.Marshal()
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			if *updatePlans {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (refresh with go test -run TestGoldenPlans -update)", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: plan changed; got:\n%s\nwant:\n%s\n(refresh deliberately with -update)",
					name, got, want)
			}

			// The golden file must round-trip: parse it back, re-apply it
			// to a fresh compilation, and land on the same content hash.
			reparsed, err := core.ParseSpec(want)
			if err != nil {
				t.Fatalf("%s: golden file does not parse: %v", name, err)
			}
			if reparsed.Hash() != spec.Hash() {
				t.Errorf("%s: hash changed across serialization: %s vs %s",
					name, reparsed.Hash()[:12], spec.Hash()[:12])
			}
			c2, err := driver.Compile(b.Source, driver.Options{Plan: reparsed, Check: true})
			if err != nil {
				t.Errorf("%s: golden plan rejected on re-application: %v", name, err)
				continue
			}
			if got2, _ := core.Extract(c2.Plan).Marshal(); !bytes.Equal(got, got2) {
				t.Errorf("%s: plan not a fixed point of apply∘extract:\n%s\nvs\n%s", name, got, got2)
			}
		}
	}
}

// distPlanHashes is one cell of testdata/plans/dist_hashes.json: the
// content address of the chosen plan and of every remark explaining it.
type distPlanHashes struct {
	Plan    string `json:"plan"`
	Remarks string `json:"remarks"`
}

// TestGoldenPlansDistributed pins what TestGoldenPlans cannot: the
// remarks of every compilation, and the plans of distributed ones,
// where communication insertion reshapes every block's ASDG (and
// favor-comm adds segment labels). One file holds PlanSpec.Hash and a
// SHA-256 of the JSON-rendered remarks per program × level × p ×
// strategy, p=1 being the sequential compilation. The "external" cells
// re-apply each golden spec of TestGoldenPlans with a fixed provenance
// note, so the remarks of a supplied plan (test "plan", and the
// plan-kind remark) are pinned too. Refresh deliberately with
//
//	go test -run TestGoldenPlansDistributed -update
func TestGoldenPlansDistributed(t *testing.T) {
	path := filepath.Join("testdata", "plans", "dist_hashes.json")
	got := map[string]distPlanHashes{}
	pin := func(cell string, opt driver.Options, src string) {
		c, err := driver.Compile(src, opt)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		remarks, err := json.Marshal(c.Plan.Remarks())
		if err != nil {
			t.Fatalf("%s: marshal remarks: %v", cell, err)
		}
		sum := sha256.Sum256(remarks)
		got[cell] = distPlanHashes{
			Plan:    core.Extract(c.Plan).Hash(),
			Remarks: hex.EncodeToString(sum[:]),
		}
	}
	for _, b := range programs.All() {
		for _, lvl := range core.AllLevels() {
			for _, procs := range []int{1, 2, 4, 8} {
				for _, strategy := range []comm.Strategy{comm.FavorFusion, comm.FavorComm} {
					if procs == 1 && strategy == comm.FavorComm {
						continue // a single processor has no communication to favor
					}
					co := comm.DefaultOptions(procs)
					co.Strategy = strategy
					pin(fmt.Sprintf("%s/%s/p%d/%s", b.Name, lvl, procs, strategy),
						driver.Options{Level: lvl, Comm: &co}, b.Source)
				}
			}
			data, err := os.ReadFile(filepath.Join("testdata", "plans", fmt.Sprintf("%s-%s.json", b.Name, lvl)))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := core.ParseSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			spec.Note = "golden plan " + lvl.String()
			pin(fmt.Sprintf("%s/%s/p1/external", b.Name, lvl), driver.Options{Plan: spec}, b.Source)
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
		t.Fatalf("%v (refresh with go test -run TestGoldenPlansDistributed -update)", err)
	}
	want := map[string]distPlanHashes{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cells compiled, %d pinned", len(got), len(want))
	}
	for cell, g := range got {
		w, ok := want[cell]
		switch {
		case !ok:
			t.Errorf("%s: not pinned (refresh deliberately with -update)", cell)
		case g.Plan != w.Plan:
			t.Errorf("%s: plan changed: %s, pinned %s", cell, g.Plan[:12], w.Plan[:12])
		case g.Remarks != w.Remarks:
			t.Errorf("%s: remarks changed (plan unchanged): %s, pinned %s", cell, g.Remarks[:12], w.Remarks[:12])
		}
	}
}
