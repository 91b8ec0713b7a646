package service

import (
	"context"
	"fmt"
	"sync"
)

// Gate is the admission/drain protocol of both fabric tiers: a replica
// admits a job onto its queue through it, the router a request into one
// of its forwarding slots. Enter holds the gate's lock shared across the
// draining check, the in-flight count and the caller's try; Drain takes
// it exclusively to flip draining. So every admission that succeeds
// happens-before the flip, and Drain waits for all of them. The zero
// value is an open gate.
type Gate struct {
	mu       sync.RWMutex
	draining bool
	inflight sync.WaitGroup // admitted units that have not left
	drained  chan struct{}  // made by the first Drain, closed once inflight is zero
}

// Enter admits one unit of work if the gate is open and try succeeds.
// The in-flight count rises before try runs and drops again when try
// fails, so a Leave can never precede the count it ends. draining
// reports a refusal because Drain has begun; try is not called then. An
// admitted unit must call Leave exactly once. try runs under the gate's
// lock, so it must not block: a queue push or a slot take that fails
// when full.
func (g *Gate) Enter(try func() bool) (ok, draining bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.draining {
		return false, true
	}
	g.inflight.Add(1)
	if !try() {
		g.inflight.Done()
		return false, false
	}
	return true, false
}

// Leave ends one unit Enter admitted.
func (g *Gate) Leave() { g.inflight.Done() }

// Draining reports whether Drain has begun.
func (g *Gate) Draining() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.draining
}

// Drain closes the gate and waits until every admitted unit has left.
// ctx bounds the wait: when it ends first, Drain returns its error, the
// gate stays closed and the units still in flight still count. A later
// Drain waits for the same units, so an interrupted drain can be resumed.
func (g *Gate) Drain(ctx context.Context) error {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		g.drained = make(chan struct{})
		go func(drained chan struct{}) {
			g.inflight.Wait()
			close(drained)
		}(g.drained)
	}
	drained := g.drained
	g.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain interrupted: %w", ctx.Err())
	}
}
