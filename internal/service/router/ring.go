// Package router fronts a fleet of resilienced replicas with a
// consistent-hash router: canonical job keys map stably onto replicas
// (so each replica's result cache concentrates on its own key range),
// backpressure is explicit at both layers (the router bounds its own
// in-flight forwards; replica 429s pass through under the router's own
// Retry-After hint), and replica
// drain or membership change re-shards the ring instead of failing
// requests. In front of the ring the router keeps a bounded cache of
// replica 200 bodies under the same keys, and answers repeats itself.
package router

import (
	"fmt"
	"sort"
)

// fnv64a hashes a key with FNV-1a-64 and finishes with the splitmix64
// mixer. Raw FNV clusters badly when inputs share long prefixes (vnode
// labels differ only in their numeric suffix), which skews ring
// ownership by 9:1; the finalizer spreads positions uniformly around
// the circle.
func fnv64a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// point is one virtual node on the ring.
type point struct {
	hash   uint64
	member int // index into ring.members
}

// ring is an immutable consistent-hash ring over the currently-routable
// replicas. Routers swap whole rings on membership change; requests in
// flight keep the ring they looked up, so a re-shard never tears a
// lookup.
type ring struct {
	members []string
	points  []point
}

// buildRing places vnodes virtual nodes per member. Members are sorted
// first so the ring layout depends only on the membership set, not on
// configuration order.
func buildRing(members []string, vnodes int) *ring {
	if vnodes < 1 {
		vnodes = 1
	}
	ms := make([]string, len(members))
	copy(ms, members)
	sort.Strings(ms)
	r := &ring{members: ms, points: make([]point, 0, len(ms)*vnodes)}
	for i, m := range ms {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: fnv64a(fmt.Sprintf("%s#%d", m, v)), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
	return r
}

// lookup returns the member owning hash h: the first virtual node at or
// clockwise after h. Empty rings return "".
func (r *ring) lookup(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}

// nth returns member i modulo the alive set — the round-robin spread
// for jobs with no canonical key (sleep diagnostics).
func (r *ring) nth(i uint64) string {
	if len(r.members) == 0 {
		return ""
	}
	return r.members[i%uint64(len(r.members))]
}
