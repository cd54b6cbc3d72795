// Command lazy is a runnable tour of the zpl lazy runtime: a damped
// Jacobi solver written as ordinary Go, executed through deferred
// evaluation. Each loop iteration issues a double-buffered sweep and
// reads the residual back — a sync point that fuses the sweep,
// compiles it once, and replays the cached compilation on every
// following iteration (the buffer swap renames to the same canonical
// program, so the fingerprint never changes).
//
//	go run ./examples/lazy [-n 64] [-tol 1e-4] [-O c2+f4s] [-backend vm|go]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/zpl"
)

func main() {
	n := flag.Int("n", 64, "grid size")
	tol := flag.Float64("tol", 1e-4, "convergence tolerance on the max residual")
	level := flag.String("O", "c2+f4s", "optimization level (baseline..c2+f4s)")
	backendFlag := flag.String("backend", "vm", "execution backend: vm or go")
	flag.Parse()

	lvl, err := core.ParseLevel(*level)
	if err != nil {
		fatal(err)
	}
	be, err := driver.ParseBackend(*backendFlag)
	if err != nil {
		fatal(err)
	}

	ctx := zpl.New(zpl.Config{Level: lvl, Backend: be, Out: os.Stdout})
	defer ctx.Close() // stops -backend go's worker processes
	full := zpl.R(1, *n, 1, *n)
	inner := zpl.R(2, *n-1, 2, *n-1)
	cur := ctx.Array("cur", full)
	nxt := ctx.Array("nxt", full)
	res := ctx.Scalar("res", 0)

	// A hot spot in the middle of a cold plate; the boundary stays 0.
	init := make([]float64, full.Size())
	mid := (*n/2-1)*(*n) + *n/2 - 1
	init[mid] = 100
	if err := cur.SetValues(init); err != nil {
		fatal(err)
	}
	if err := nxt.SetValues(init); err != nil {
		fatal(err)
	}

	iters := 0
	for {
		// One sweep: 5-point average into a temp (contracted away),
		// damped update, max-residual reduction. All fused at the sync.
		avg := ctx.Temp("avg", full)
		avg.Assign(inner, zpl.Mul(zpl.Const(0.25),
			zpl.Add(zpl.Add(cur.At(-1, 0), cur.At(1, 0)),
				zpl.Add(cur.At(0, -1), cur.At(0, 1)))))
		nxt.Assign(inner, zpl.Add(cur, zpl.Mul(zpl.Const(0.8), zpl.Sub(avg, cur))))
		res.MaxOf(inner, zpl.Abs(zpl.Sub(nxt, cur)))
		cur, nxt = nxt, cur

		r, err := res.Value() // sync point
		if err != nil {
			fatal(err)
		}
		iters++
		if iters%50 == 0 {
			fmt.Printf("iter %4d  residual %.3g\n", iters, r)
		}
		if r < *tol || iters >= 10000 {
			fmt.Printf("iter %4d  residual %.3g\n", iters, r)
			break
		}
	}

	center, err := cur.Value(*n/2, *n/2)
	if err != nil {
		fatal(err)
	}
	st := ctx.CacheStats()
	fmt.Printf("converged: center %.4g after %d iterations\n", center, iters)
	fmt.Printf("compilations %d, cache hits %d (level %s, backend %s)\n",
		st.Misses, st.Hits, lvl, *backendFlag)
	for _, rm := range ctx.Remarks() {
		fmt.Println(" ", rm.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lazy:", err)
	os.Exit(1)
}
