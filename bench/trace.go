package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/driver"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the
// span that caused this one (-1 for a root); spans of one operation
// share OpID.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// Tracer records spans in memory. A nil *Tracer is the untraced run:
// every method is a no-op, so the measured code path is identical
// apart from the recording itself.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its index, the handle End and child
// spans refer to.
func (t *Tracer) Begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, Parent: parent, OpID: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Len is the number of spans recorded so far; with Range it lets a
// caller pick out the spans of the operation it just ran.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Range copies the spans with indices in [from, to).
func (t *Tracer) Range(from, to int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans[from:to]...)
}

// phaseLayer maps the phase names driver.Options.Hooks delivers to the
// span names (and per-layer metric prefixes) this benchmark uses.
var phaseLayer = map[string]string{
	"parse": "parser.parse", "sema": "sema.check", "lower": "lower.lower",
	"comm": "comm.insert", "asdg": "core.asdg", "fusion": "core.fusion",
	"contraction": "core.contraction", "scalarize": "scalarize.scalarize",
	"prove": "absint.prove", "race": "mhp.race", "check": "check.check",
}

// Hooks returns driver hooks that record each pipeline phase as a
// child of parent. The driver calls a compilation's hooks
// sequentially and phases do not nest, so one open slot is enough.
// The untraced run gets the zero Hooks.
func (t *Tracer) Hooks(parent, op int) driver.Hooks {
	if t == nil {
		return driver.Hooks{}
	}
	open := -1
	return driver.Hooks{
		PhaseStart: func(name string) {
			if l, ok := phaseLayer[name]; ok {
				name = l
			}
			open = t.Begin(name, parent, op)
		},
		PhaseEnd: func(string) { t.End(open) },
	}
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds over spans: a span's duration minus the part of its
// interval that its child spans cover. Parent indices in spans are
// relative to base (the index of spans[0] in the tracer).
func selfTimes(spans []Span, base int) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if p := s.Parent - base; s.Parent >= 0 && p >= 0 && p < len(spans) {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - cover(children[i], s.Start, s.End)
	}
	return out
}

// cover is the length of the union of intervals, clipped to [lo, hi].
func cover(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// Write stores the spans as JSON under dir.
func (t *Tracer) Write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(t.Range(0, t.Len()))
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
