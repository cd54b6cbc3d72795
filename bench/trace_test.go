package main

import (
	"encoding/json"
	"os"
	"testing"
)

// A span's self time is its duration minus the union of its
// children's intervals: overlapping children are not subtracted twice
// and a child's own children do not reach the grandparent.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "driver.compile", Start: 0, End: 100, Parent: -1},
		{Name: "parser.parse", Start: 10, End: 30, Parent: 0},
		{Name: "core.fusion", Start: 25, End: 60, Parent: 0}, // overlaps parse by 5
		{Name: "inner", Start: 40, End: 50, Parent: 2},
		{Name: "core.fusion", Start: 70, End: 80, Parent: 0}, // same name twice: summed
		{Name: "gogen.emit", Start: 100, End: 130, Parent: -1},
	}
	got := selfTimes(spans, 0)
	want := map[string]int64{
		"driver.compile": 100 - (50 + 10), // children cover [10,60] and [70,80]
		"parser.parse":   20,
		"core.fusion":    (35 - 10) + 10,
		"inner":          10,
		"gogen.emit":     30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// Parent indices are absolute; a slice cut from the middle of a trace
// resolves them against its base, and ignores parents outside it.
func TestSelfTimesWithBase(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 10, Parent: -1},
		{Name: "child", Start: 2, End: 6, Parent: 7},
		{Name: "stray", Start: 7, End: 9, Parent: 3}, // parent precedes the slice
	}
	got := selfTimes(spans, 7)
	if got["op"] != 6 || got["child"] != 4 || got["stray"] != 2 {
		t.Errorf("self times with base 7 = %v", got)
	}
}

func TestCoverClipsToParent(t *testing.T) {
	if got := cover([][2]int64{{-5, 5}, {8, 20}}, 0, 10); got != 7 {
		t.Errorf("cover = %d, want 5+2", got)
	}
}

// The untraced run passes a nil tracer through the same code path.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", -1, 0)
	tr.End(id)
	if tr.Len() != 0 || tr.Range(0, 0) != nil {
		t.Error("a nil tracer must record nothing")
	}
	if h := tr.Hooks(id, 0); h.PhaseStart != nil || h.PhaseEnd != nil {
		t.Error("the untraced run must hand the driver zero Hooks")
	}
}

func TestHooksRecordPhasesUnderParent(t *testing.T) {
	tr := newTracer()
	parent := tr.Begin("driver.compile", -1, 42)
	h := tr.Hooks(parent, 42)
	h.PhaseStart("parse")
	h.PhaseEnd("parse")
	h.PhaseStart("fusion")
	h.PhaseEnd("fusion")
	tr.End(parent)
	spans := tr.Range(0, tr.Len())
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	for i, name := range []string{"driver.compile", "parser.parse", "core.fusion"} {
		s := spans[i]
		if s.Name != name || s.OpID != 42 || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s of op 42", i, s, name)
		}
		if i > 0 && s.Parent != parent {
			t.Errorf("%s has parent %d, want %d", name, s.Parent, parent)
		}
	}

	path, err := tr.Write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]interface{}
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 3 {
		t.Fatalf("trace file: %v, %d spans", err, len(back))
	}
	for _, key := range []string{"name", "start", "end", "parent", "op_id"} {
		if _, ok := back[1][key]; !ok {
			t.Errorf("span in the trace file has no %q", key)
		}
	}
}
