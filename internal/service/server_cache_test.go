package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCacheHitSkipsQueue saturates the worker and the whole queue with
// sleep jobs, then asks for an already-cached scenario: it must answer
// 200 immediately from the cache — a hit never consumes a queue slot,
// so backpressure applies only to genuinely new work.
func TestCacheHitSkipsQueue(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Warm the cache while the pool is idle.
	code, warm, hdr := post(t, ts, JobRequest{Scenario: testScenario})
	if code != http.StatusOK {
		t.Fatalf("warmup answered %d", code)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("warmup X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}

	// Fill the worker, then the queue, with sleeps — one after the other:
	// two racing fillers can both arrive before the worker takes the
	// first, and the loser is refused instead of queued.
	first := sleepInBackground(ts, 500)
	waitFor(t, "worker never took the first sleep", func() bool {
		st := srv.TelemetrySnapshot()
		return st.Counter("jobs_admitted_total") == 2 && st.Gauge("queue_depth") == 0
	})
	second := sleepInBackground(ts, 500)
	waitFor(t, "queue never filled", func() bool { return srv.TelemetrySnapshot().Gauge("queue_depth") == 1 })

	// A fresh sleep is rejected (queue full) but the cached scenario is
	// served instantly.
	if code, _, _ := post(t, ts, JobRequest{SleepMs: 1}); code != http.StatusTooManyRequests {
		t.Fatalf("saturated queue admitted new work: %d", code)
	}
	start := time.Now()
	code, got, hdr := post(t, ts, JobRequest{Scenario: testScenario})
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("cached solve under saturation: code %d X-Cache %q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(got, warm) {
		t.Fatalf("cache hit differs from original body\n got: %s\nwant: %s", got, warm)
	}
	if d := time.Since(start); d > 400*time.Millisecond {
		t.Fatalf("cache hit waited %v — it queued behind the sleeps", d)
	}
	if a, b := <-first, <-second; a != http.StatusOK || b != http.StatusOK {
		t.Fatalf("sleep jobs answered %d and %d", a, b)
	}
}

// TestCoalescedSingleExecution parks a scenario flight behind a busy
// worker and sends a duplicate: exactly one execution is admitted, the
// duplicate joins the flight, and both get the same bytes.
func TestCoalescedSingleExecution(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Occupy the single worker so the scenario leader sits in the queue.
	sleepDone := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, JobRequest{SleepMs: 600})
		sleepDone <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.TelemetrySnapshot().Counter("jobs_admitted_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sleep never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	type reply struct {
		code  int
		body  []byte
		cache string
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, body, hdr := post(t, ts, JobRequest{Scenario: testScenario})
			replies <- reply{code, body, hdr.Get("X-Cache")}
		}()
	}
	a, b := <-replies, <-replies
	if <-sleepDone != http.StatusOK {
		t.Fatal("sleep job failed")
	}
	if a.code != http.StatusOK || b.code != http.StatusOK {
		t.Fatalf("codes %d/%d", a.code, b.code)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatalf("leader and joiner bodies differ:\n%s\n%s", a.body, b.body)
	}
	got := map[string]int{a.cache: 1}
	got[b.cache]++
	if got["miss"] != 1 || got["coalesced"] != 1 {
		t.Fatalf("X-Cache pair %q/%q, want one miss + one coalesced", a.cache, b.cache)
	}
	st := srv.TelemetrySnapshot()
	if st.Gauge("cache_coalesced_total") != 1 {
		t.Fatalf("coalesced = %v, want 1", st.Gauge("cache_coalesced_total"))
	}
	// One sleep + one scenario leader were admitted; the joiner was not.
	if st.Counter("jobs_admitted_total") != 2 {
		t.Fatalf("admitted = %d, want 2 (sleep + leader)", st.Counter("jobs_admitted_total"))
	}
}

// TestDrainingServesCacheHits: after Shutdown the server refuses new
// work with 503 but keeps answering resident cache entries — a
// draining replica serves out its hot set while a router re-shards.
func TestDrainingServesCacheHits(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, warm, _ := post(t, ts, JobRequest{Scenario: testScenario})
	if code != http.StatusOK {
		t.Fatalf("warmup answered %d", code)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, got, hdr := post(t, ts, JobRequest{Scenario: testScenario})
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("draining cache hit: code %d X-Cache %q body %s", code, hdr.Get("X-Cache"), got)
	}
	if !bytes.Equal(got, warm) {
		t.Fatal("draining cache hit body differs")
	}
	// An uncached scenario (different seed) needs the queue: 503.
	other := "-grid 8 -ranks 4 -scheme CR-M -ckpt 5 -tol 1e-10 -seed 8"
	if code, _, _ := post(t, ts, JobRequest{Scenario: other}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining miss answered %d, want 503", code)
	}
}
