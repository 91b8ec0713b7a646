package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRUEvictionOrder pins the recency discipline on a single shard:
// the least recently *used* entry goes first, and a Get refreshes
// recency just like a Put.
func TestLRUEvictionOrder(t *testing.T) {
	c := New[int](3, 1)
	if c.Capacity() != 3 {
		t.Fatalf("capacity = %d, want 3", c.Capacity())
	}
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if _, ok := c.Get("a"); !ok { // a is now MRU; b is LRU
		t.Fatal("a missing before any eviction")
	}
	c.Put("d", 4) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}
	c.Put("e", 5) // LRU is now a (c, d were just touched after it)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived; eviction did not follow recency")
	}
	if _, _, ev := c.Stats(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
}

// TestLRUUpdateExisting: re-putting a key refreshes value and recency
// without growing the cache or evicting.
func TestLRUUpdateExisting(t *testing.T) {
	c := New[string](2, 1)
	c.Put("a", "old")
	c.Put("b", "B")
	c.Put("a", "new") // a becomes MRU, no eviction
	if v, ok := c.Get("a"); !ok || v != "new" {
		t.Fatalf("a = %q,%v after update", v, ok)
	}
	c.Put("c", "C") // evicts b, not a
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; update did not refresh a's recency")
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestShardedBounds: a sharded cache never holds more than its total
// capacity, whatever the insert pattern.
func TestShardedBounds(t *testing.T) {
	c := New[int](64, 8)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	hits, misses, ev := c.Stats()
	if ev == 0 {
		t.Fatal("1000 inserts into 64 slots evicted nothing")
	}
	if hits != 0 || misses != 0 {
		t.Fatalf("puts moved the lookup counters: hits=%d misses=%d", hits, misses)
	}
}

// TestCounters: every lookup is exactly one hit or one miss.
func TestCounters(t *testing.T) {
	c := New[int](8, 2)
	c.Put("k", 1)
	c.Get("k")
	c.Get("k")
	c.Get("absent")
	hits, misses, _ := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// TestSingleflightCoalesces parks joiners on a gated leader and checks
// exactly one execution with the result fanned out to all of them.
func TestSingleflightCoalesces(t *testing.T) {
	g := NewGroup[int]()
	gate := make(chan struct{})
	var execs atomic.Int64
	lead := make(chan int, 1)
	go func() {
		v, err, shared := g.Do("k", func() (int, error) {
			execs.Add(1)
			<-gate
			return 42, nil
		})
		if err != nil || shared {
			t.Errorf("leader: v=%d err=%v shared=%v", v, err, shared)
		}
		lead <- v
	}()
	for {
		g.mu.Lock()
		_, running := g.m["k"]
		g.mu.Unlock()
		if running {
			break
		}
		runtime.Gosched()
	}

	const joiners = 8
	results := make(chan int, joiners)
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do("k", func() (int, error) {
				execs.Add(1)
				return -1, nil
			})
			if err != nil || !shared {
				t.Errorf("joiner: v=%d err=%v shared=%v", v, err, shared)
			}
			results <- v
		}()
	}
	// Joiners register before the gate opens: wait until all hold a
	// reference on the flight.
	for {
		g.mu.Lock()
		f := g.m["k"]
		g.mu.Unlock()
		if f != nil && f.refs.Load() == joiners+1 {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if v := <-lead; v != 42 {
		t.Fatalf("leader result %d", v)
	}
	for i := 0; i < joiners; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("joiner result %d, want 42", v)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	leads, joins := g.Stats()
	if leads != 1 || joins != joiners {
		t.Fatalf("leads=%d joins=%d, want 1/%d", leads, joins, joiners)
	}
	// The key is free again: a later Do runs fresh.
	v, err, shared := g.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || err != nil || shared {
		t.Fatalf("post-flight Do: v=%d err=%v shared=%v", v, err, shared)
	}
}

// TestSingleflightError: a failing flight fans the error out and leaves
// nothing cached in the group.
func TestSingleflightError(t *testing.T) {
	g := NewGroup[int]()
	boom := errors.New("boom")
	_, err, _ := g.Do("k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err, _ := g.Do("k", func() (int, error) { return 3, nil })
	if v != 3 || err != nil {
		t.Fatalf("retry after error: v=%d err=%v", v, err)
	}
}

// TestEvictionUnderConcurrentSingleflight hammers a tiny cache from
// many single-flight leaders at once: whatever interleaving of
// evictions and flights occurs, every Do observes the correct value for
// its key and the cache never exceeds capacity.
func TestEvictionUnderConcurrentSingleflight(t *testing.T) {
	c := New[int](4, 1) // far smaller than the key set: constant eviction
	g := NewGroup[int]()
	compute := func(k int) (int, error) { return k * 1000, nil }

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := (w + i) % 16
				key := fmt.Sprintf("k%d", k)
				if v, ok := c.Get(key); ok {
					if v != k*1000 {
						t.Errorf("cache returned %d for %s", v, key)
					}
					continue
				}
				v, err, _ := g.Do(key, func() (int, error) {
					v, err := compute(k)
					if err == nil {
						c.Put(key, v)
					}
					return v, err
				})
				if err != nil || v != k*1000 {
					t.Errorf("Do(%s) = %d, %v", key, v, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Fatalf("len %d exceeds capacity %d under concurrency", c.Len(), c.Capacity())
	}
	if _, _, ev := c.Stats(); ev == 0 {
		t.Fatal("no evictions despite 16 keys in 4 slots")
	}
}
