package cache

import (
	"strconv"
	"testing"
)

// The three serving hot paths below must stay allocation-free: a cache
// hit, a cache miss, and a single-flight cycle. scripts/check.sh gates
// all three at 0 allocs/op.

func BenchmarkCacheGetHit(b *testing.B) {
	c := New[[]byte](1024, 16)
	body := []byte(`{"kind":"scenario","iters":42}`)
	for i := 0; i < 64; i++ {
		c.Put("j1|scenario|-grid 8 -seed "+strconv.Itoa(i), body)
	}
	key := "j1|scenario|-grid 8 -seed 7"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(key); !ok {
			b.Fatal("hit path missed")
		}
	}
}

func BenchmarkCacheGetMiss(b *testing.B) {
	c := New[[]byte](1024, 16)
	c.Put("resident", []byte("x"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("j1|scenario|-grid 9 -seed 12345"); ok {
			b.Fatal("miss path hit")
		}
	}
}

func BenchmarkSingleflightJoin(b *testing.B) {
	g := NewGroup[int]()
	fn := func() (int, error) { return 42, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err, _ := g.Do("k", fn); v != 42 || err != nil {
			b.Fatal("flight failed")
		}
	}
}
