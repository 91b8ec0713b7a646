package service

import (
	"context"
	"testing"
	"time"
)

// TestGate pins the admission/drain protocol the replica and the router
// share.
func TestGate(t *testing.T) {
	always := func() bool { return true }
	// drained reports whether g's in-flight count reaches zero within d.
	drained := func(g *Gate, d time.Duration) bool {
		done := make(chan struct{})
		go func() {
			g.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
			return true
		case <-time.After(d):
			return false
		}
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T, g *Gate)
	}{
		{"open gate admits", func(t *testing.T, g *Gate) {
			if ok, draining := g.Enter(always); !ok || draining {
				t.Fatalf("Enter = %v, %v; want admitted", ok, draining)
			}
			if g.Draining() {
				t.Fatal("open gate reports draining")
			}
			g.Leave()
		}},
		{"after Drain, Enter reports draining", func(t *testing.T, g *Gate) {
			if err := g.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			called := false
			ok, draining := g.Enter(func() bool { called = true; return true })
			if ok || !draining || called {
				t.Fatalf("Enter = %v, %v (try called: %v); want refused as draining without try", ok, draining, called)
			}
			if !g.Draining() {
				t.Fatal("drained gate does not report draining")
			}
		}},
		{"a later Drain resumes an interrupted one", func(t *testing.T, g *Gate) {
			g.Enter(always)
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			if err := g.Drain(expired); err == nil {
				t.Fatal("Drain with a unit in flight succeeded past its context")
			}
			done := make(chan error, 1)
			go func() { done <- g.Drain(context.Background()) }()
			select {
			case err := <-done:
				t.Fatalf("second Drain returned %v with a unit in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			g.Leave()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := g.Drain(context.Background()); err != nil {
				t.Fatalf("Drain of a drained gate: %v", err)
			}
		}},
		{"Drain waits for Leave", func(t *testing.T, g *Gate) {
			g.Enter(always)
			done := make(chan error, 1)
			go func() { done <- g.Drain(context.Background()) }()
			select {
			case err := <-done:
				t.Fatalf("Drain returned %v with a unit in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			g.Leave()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		{"expired ctx errors with the count still held", func(t *testing.T, g *Gate) {
			g.Enter(always)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if err := g.Drain(ctx); err == nil {
				t.Fatal("Drain with a unit in flight succeeded past its deadline")
			}
			if drained(g, 20*time.Millisecond) {
				t.Fatal("interrupted Drain dropped the in-flight unit")
			}
			g.Leave()
			if !drained(g, time.Second) {
				t.Fatal("Leave after an interrupted Drain did not end the unit")
			}
		}},
		{"failed try leaves nothing in flight", func(t *testing.T, g *Gate) {
			if ok, draining := g.Enter(func() bool { return false }); ok || draining {
				t.Fatalf("Enter = %v, %v; want refused, not draining", ok, draining)
			}
			if !drained(g, time.Second) {
				t.Fatal("a failed try left a unit in flight")
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := g.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, new(Gate)) })
	}
}
