package cache

import (
	"sync"
	"sync/atomic"
)

// flight is one in-progress computation. It is reference-counted so the
// group can recycle flights through a sync.Pool: the leader holds one
// reference, every joiner takes another before waiting, and the last
// release returns the flight to the pool — by which point every Wait has
// returned, so the WaitGroup is safely reusable.
type flight[V any] struct {
	wg   sync.WaitGroup
	refs atomic.Int64
	val  V
	err  error
}

// Group coalesces concurrent calls that share a key: the first caller
// (the leader) runs fn, every later caller arriving before the leader
// finishes joins the flight and receives the leader's result. Because
// the service's jobs are deterministic, a joined result is
// bitwise-identical to what the joiner would have computed itself.
type Group[V any] struct {
	mu   sync.Mutex
	m    map[string]*flight[V]
	pool sync.Pool

	leads atomic.Int64
	joins atomic.Int64
}

// NewGroup builds an empty single-flight group.
func NewGroup[V any]() *Group[V] {
	return &Group[V]{m: make(map[string]*flight[V])}
}

// Do returns the result of fn for key, running it at most once across
// all concurrent callers of the same key. shared reports whether the
// result was computed by another caller's flight. The leader's
// steady-state path allocates nothing (flights are pooled); joiners
// never allocate.
func (g *Group[V]) Do(key string, fn func() (V, error)) (val V, err error, shared bool) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		f.refs.Add(1)
		g.mu.Unlock()
		g.joins.Add(1)
		f.wg.Wait()
		val, err = f.val, f.err
		g.release(f)
		return val, err, true
	}
	f, _ := g.pool.Get().(*flight[V])
	if f == nil {
		f = new(flight[V])
	}
	f.refs.Store(1)
	f.wg.Add(1)
	g.m[key] = f
	g.mu.Unlock()

	g.leads.Add(1)
	f.val, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	val, err = f.val, f.err
	f.wg.Done()
	g.release(f)
	return val, err, false
}

// release drops one reference; the last holder zeroes and pools the
// flight. Every waiter reads val/err before releasing, so recycling
// cannot race a read.
func (g *Group[V]) release(f *flight[V]) {
	if f.refs.Add(-1) == 0 {
		var zero V
		f.val, f.err = zero, nil
		g.pool.Put(f)
	}
}

// Stats returns how many flights ran (leads) and how many callers were
// coalesced onto another caller's flight (joins).
func (g *Group[V]) Stats() (leads, joins int64) {
	return g.leads.Load(), g.joins.Load()
}
