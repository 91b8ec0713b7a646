package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestQueueZeroSlot: a queue asked for zero (or negative) capacity
// still admits one job — the floor keeps a misconfigured daemon
// serving instead of rejecting everything.
func TestQueueZeroSlot(t *testing.T) {
	for _, cap := range []int{0, -3} {
		q := newQueue(cap)
		j1 := &job{done: make(chan jobOutcome, 1)}
		if !q.tryPush(j1) {
			t.Fatalf("cap %d: first push rejected", cap)
		}
		if q.tryPush(&job{done: make(chan jobOutcome, 1)}) {
			t.Fatalf("cap %d: second push admitted beyond the one-slot floor", cap)
		}
		if q.depth() != 1 {
			t.Fatalf("cap %d: depth %d, want 1", cap, q.depth())
		}
		if got := <-q.ch; got != j1 {
			t.Fatalf("cap %d: popped wrong job", cap)
		}
		if q.depth() != 0 {
			t.Fatalf("cap %d: depth %d after pop", cap, q.depth())
		}
		q.close()
		if _, open := <-q.ch; open {
			t.Fatalf("cap %d: channel still open after close", cap)
		}
	}
}

// TestRetryAfterSeconds pins the 429 hint rounding: always at least one
// second, fractions rounded up.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-5 * time.Second, 1},
		{300 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{61 * time.Second, 61},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.d); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestDrainWithParkedWaiters: Shutdown while several handlers are
// parked on queued jobs must answer every one of them before
// returning — waiters never leak and never see a torn response.
func TestDrainWithParkedWaiters(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One running + two queued: three handlers parked on j.done.
	codes := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			code, _, _ := post(t, ts, JobRequest{SleepMs: 200})
			codes <- code
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.TelemetrySnapshot().Gauge("queue_depth") != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %v", srv.TelemetrySnapshot().Gauge("queue_depth"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	for i := 0; i < 3; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("parked waiter answered %d", c)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("drain with parked waiters: %v", err)
	}
	// Post-drain: admission refused, queue closed, no panic on push path.
	if code, _, _ := post(t, ts, JobRequest{SleepMs: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain admission answered %d", code)
	}
}

// TestDrainTimeout: a drain bounded by an already-expired context
// reports the interruption instead of hanging.
func TestDrainTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	got := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, JobRequest{SleepMs: 400})
		got <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.TelemetrySnapshot().Counter("jobs_admitted_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("expired drain context reported success")
	}
	if c := <-got; c != http.StatusOK {
		t.Fatalf("in-flight job answered %d after interrupted drain", c)
	}
}

// TestInterruptedDrainStopsWorkers: a drain whose context ends before
// its job does still closes the queue, so the workers exit once the job
// is answered and no goroutine outlives the server without a second
// Shutdown; that second Shutdown then completes.
func TestInterruptedDrainStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	got := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, JobRequest{SleepMs: 200})
		got <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.TelemetrySnapshot().Counter("jobs_admitted_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("expired drain context reported success")
	}
	if c := <-got; c != http.StatusOK {
		t.Fatalf("in-flight job answered %d after interrupted drain", c)
	}
	ts.Close()
	deadline = time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the interrupted drain, %d before New", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after the interrupted drain: %v", err)
	}
}
