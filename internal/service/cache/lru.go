// Package cache provides the serving-layer performance primitives: a
// bounded, sharded LRU for content-addressed results and a single-flight
// group that coalesces identical in-flight computations.
//
// Both are safe because of the service's determinism contract — a job's
// result bytes are a pure function of its canonical encoding — so a
// cached or coalesced answer is bitwise-indistinguishable from a fresh
// one. The Get hot path (hit or miss) performs zero allocations; the
// scripts/check.sh alloc gate pins that property.
package cache

import (
	"sync"
	"sync/atomic"
)

// fnv64a hashes a key with FNV-1a-64 without allocating.
func fnv64a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// entry is one resident cache line on a shard's intrusive LRU list.
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// shard is one lock domain: a map for lookup and a sentinel-rooted
// doubly-linked list in recency order (root.next is most recent).
type shard[V any] struct {
	mu   sync.Mutex
	m    map[string]*entry[V]
	cap  int
	root entry[V] // sentinel; root.next = MRU, root.prev = LRU
}

func (s *shard[V]) init(capacity int) {
	s.m = make(map[string]*entry[V], capacity)
	s.cap = capacity
	s.root.next = &s.root
	s.root.prev = &s.root
}

// unlink removes e from the recency list.
func (s *shard[V]) unlink(e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront makes e the most recently used entry.
func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = &s.root
	e.next = s.root.next
	e.next.prev = e
	s.root.next = e
}

// Cache is a bounded, sharded LRU keyed by canonical strings. Capacity
// is enforced per shard (total capacity = shards x per-shard bound), so
// shards never contend on a global list; hit/miss/eviction counters are
// process-wide atomics.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New builds a cache bounded at roughly capacity entries spread over
// shards lock domains (shards is rounded up to a power of two; both
// default when <= 0: capacity 4096, shards 16). Per-shard capacity is
// at least one entry, so tiny caches still admit work on every shard.
func New[V any](capacity, shards int) *Cache[V] {
	if capacity <= 0 {
		capacity = 4096
	}
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].init(perShard)
	}
	return c
}

func (c *Cache[V]) shardOf(key string) *shard[V] {
	return &c.shards[fnv64a(key)&c.mask]
}

// Get returns the value cached under key, bumping its recency. The hot
// path allocates nothing for hits or misses.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	if s.root.next != e {
		s.unlink(e)
		s.pushFront(e)
	}
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Peek returns the value cached under key without counting a lookup or
// bumping its recency: a second look by a caller whose Get already
// counted, so hits + misses stays the number of lookups.
func (c *Cache[V]) Peek(key string) (V, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Put inserts or refreshes key, evicting the shard's least recently
// used entry when the shard is full.
func (c *Cache[V]) Put(key string, val V) {
	s := c.shardOf(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.val = val
		if s.root.next != e {
			s.unlink(e)
			s.pushFront(e)
		}
		s.mu.Unlock()
		return
	}
	if len(s.m) >= s.cap {
		lru := s.root.prev
		s.unlink(lru)
		delete(s.m, lru.key)
		c.evictions.Add(1)
	}
	e := &entry[V]{key: key, val: val}
	s.m[key] = e
	s.pushFront(e)
	s.mu.Unlock()
}

// Len returns the resident entry count across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the total entry bound (shards x per-shard bound).
func (c *Cache[V]) Capacity() int {
	return len(c.shards) * c.shards[0].cap
}

// Stats returns the cumulative hit, miss and eviction counts.
func (c *Cache[V]) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
