// Package flight is the one singleflight table behind the two
// content-addressed stores that compute (store.Tiered, backend.Store): N
// overlapping callers of one missing key cost one run of the function,
// and a flight always resolves, however that run ends.
package flight

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic in a leader's fn as the callers that joined its
// flight receive it; the leader sees the panic itself, re-raised with
// this value.
type PanicError struct {
	Value any    // what fn panicked with; nil when it called runtime.Goexit
	Stack []byte // the panicking goroutine's stack, for the log
}

func (e *PanicError) Error() string { return fmt.Sprintf("internal error: panic: %v", e.Value) }

// AsPanic wraps what a deferred recover() returned, with the stack at
// that point. A *PanicError passes through: it is a flight's re-raise,
// and carries the stack of the panic itself.
func AsPanic(recovered any) *PanicError {
	if pe, ok := recovered.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: recovered, Stack: debug.Stack()}
}

type call[V any] struct {
	done      chan struct{} // closed when the leader's fn has ended
	v         V
	err       error
	abandoned bool // fn failed after the leader's ctx ended: says nothing about the key
}

// Group deduplicates concurrent calls by key. The zero value is ready
// to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// Do returns fn's result for k, running it once across the callers that
// overlap: the first (the leader) runs its fn, the rest join and share
// its result, error included (joined is true for them). Nothing is kept
// once a flight ends; a caller that caches stores the result inside fn,
// which is before any joiner is released.
//
// A joiner waits on its own ctx and returns ctx.Err() if that ends
// first. A flight that failed after its leader's ctx ended is retried by
// every joiner whose ctx is live — one of them leads, with its own fn —
// so a short deadline never fails a longer one. If fn panics (or exits
// its goroutine) the key is released all the same, joiners get a
// *PanicError, and the panic continues in the leader with that value.
func (g *Group[K, V]) Do(ctx context.Context, k K, fn func() (V, error)) (v V, joined bool, err error) {
	for {
		g.mu.Lock()
		c, ok := g.calls[k]
		if !ok {
			c = &call[V]{done: make(chan struct{})}
			if g.calls == nil {
				g.calls = map[K]*call[V]{}
			}
			g.calls[k] = c
			g.mu.Unlock()
			g.lead(ctx, k, c, fn)
			return c.v, false, c.err
		}
		g.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
		if !c.abandoned || ctx.Err() != nil {
			return c.v, true, c.err
		}
	}
}

// lead runs fn and resolves c on every way out of it.
func (g *Group[K, V]) lead(ctx context.Context, k K, c *call[V], fn func() (V, error)) {
	returned := false
	defer func() {
		var pe *PanicError
		if !returned {
			pe = AsPanic(recover()) // Value nil: fn called runtime.Goexit, which goes on by itself
			c.err = pe
		}
		g.mu.Lock()
		delete(g.calls, k)
		g.mu.Unlock()
		close(c.done)
		if pe != nil && pe.Value != nil {
			panic(pe)
		}
	}()
	c.v, c.err = fn()
	c.abandoned = c.err != nil && ctx.Err() != nil
	returned = true
}
