package main

import (
	"fmt"
	"math"
)

// The kernels below are written by hand, fused and contracted the way
// the paper's optimizer is meant to leave the array statements: one
// loop nest per time step, no array temporary. They never pass through
// the compiler under test, so they serve as an independent reference
// for outputs and as the "what the hardware allows" denominator of
// gogen.vs_hand_ratio. The floating-point association of every
// expression follows the source program exactly, so results are
// bit-identical to a correct compilation.

// handHeat computes what heat.za prints: explicit heat diffusion on an
// n×n grid for the given number of steps, returning the interior sum
// after the last step. LAP is contracted to a scalar; the update is
// double-buffered because T@neighbour must read the previous step.
func handHeat(n, steps int) float64 {
	w := n + 2 // one halo cell on every side keeps the inner loop branch-free
	t := make([]float64, w*w)
	nxt := make([]float64, w*w)
	for i := 2; i <= n-1; i++ {
		for j := 2; j <= n-1; j++ {
			t[i*w+j] = 100.0 * math.Sin(0.1*float64(i)) * math.Sin(0.1*float64(j))
		}
	}
	copy(nxt, t)
	sum := 0.0
	for s := 0; s < steps; s++ {
		sum = 0
		for i := 2; i <= n-1; i++ {
			row, up, down := t[i*w:(i+1)*w], t[(i-1)*w:i*w], t[(i+1)*w:(i+2)*w]
			out := nxt[i*w : (i+1)*w]
			for j := 2; j <= n-1; j++ {
				c := row[j]
				lap := up[j] + down[j] + row[j-1] + row[j+1] - 4.0*c
				v := c + 0.1*lap
				out[j] = v
				sum += v
			}
		}
		t, nxt = nxt, t
	}
	return sum
}

// heatOutput is the transcript of heat.za for n and steps.
func heatOutput(n, steps int) string {
	return fmt.Sprintf("heat = %g\n", handHeat(n, steps))
}

// handJacobi is the lazy workloads' solver: a damped, double-buffered
// Jacobi relaxation whose 5-point average is a contracted temporary
// and whose max-residual reduction is fused into the same nest.
type handJacobi struct {
	n        int
	cur, nxt []float64
}

func newHandJacobi(n int) *handJacobi {
	h := &handJacobi{n: n, cur: make([]float64, n*n), nxt: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := float64(i+1) * float64(i+1)
			h.cur[i*n+j], h.nxt[i*n+j] = v, v
		}
	}
	return h
}

// sweep performs one relaxation step and returns max |nxt-cur| over
// the interior.
func (h *handJacobi) sweep() float64 {
	n := h.n
	res := math.Inf(-1)
	for i := 1; i < n-1; i++ {
		row, up, down := h.cur[i*n:(i+1)*n], h.cur[(i-1)*n:i*n], h.cur[(i+1)*n:(i+2)*n]
		out := h.nxt[i*n : (i+1)*n]
		for j := 1; j < n-1; j++ {
			c := row[j]
			avg := 0.25 * ((up[j] + down[j]) + (row[j-1] + row[j+1]))
			v := c + 0.8*(avg-c)
			out[j] = v
			res = math.Max(res, math.Abs(v-c))
		}
	}
	h.cur, h.nxt = h.nxt, h.cur
	return res
}
