package zpl_test

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/proctest"
	"repro/zpl"
)

func TestMain(m *testing.M) { os.Exit(proctest.Main(m)) }

func itoa(n int) string { return strconv.Itoa(n) }

// TestQuickstart runs the doc-comment's Jacobi loop shape through the
// public API: converging residual, cached steady state, readable
// results.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	ctx := zpl.New(zpl.Config{Level: core.C2F4S, Out: &out})
	const n = 16
	full := zpl.R(1, n, 1, n)
	inner := zpl.R(2, n-1, 2, n-1)
	cur := ctx.Array("cur", full)
	nxt := ctx.Array("nxt", full)
	res := ctx.Scalar("res", 0)
	cur.Assign(nil, zpl.Mul(zpl.Index(1), zpl.Index(1)))
	nxt.Assign(nil, zpl.Mul(zpl.Index(1), zpl.Index(1)))
	if err := ctx.Eval(); err != nil {
		t.Fatal(err)
	}
	init := ctx.CacheStats()

	iters := 0
	for {
		nxt.Assign(inner, zpl.Mul(zpl.Const(0.25),
			zpl.Add(zpl.Add(cur.At(-1, 0), cur.At(1, 0)),
				zpl.Add(cur.At(0, -1), cur.At(0, 1)))))
		res.MaxOf(inner, zpl.Abs(zpl.Sub(nxt, cur)))
		cur, nxt = nxt, cur
		r, err := res.Value()
		if err != nil {
			t.Fatal(err)
		}
		iters++
		if r < 1e-3 || iters >= 500 {
			break
		}
	}
	if iters < 2 || iters >= 500 {
		t.Fatalf("Jacobi took %d iterations, want a converging run", iters)
	}
	d := ctx.CacheStats().Sub(init)
	if d.Misses != 1 {
		t.Errorf("sweep misses = %d, want 1 (steady state must reuse the compiled sweep)", d.Misses)
	}
	if d.Hits < int64(iters-1) {
		t.Errorf("sweep hits = %d, want >= %d", d.Hits, iters-1)
	}
	v, err := cur.Value(1, n/2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("boundary row = %g, want its seeded value 1", v)
	}
	ctx.Writeln("iters", iters)
	if err := ctx.Eval(); err != nil {
		t.Fatal(err)
	}
	if want := "iters " + itoa(iters) + "\n"; out.String() != want {
		t.Errorf("writeln output = %q, want %q", out.String(), want)
	}
}
