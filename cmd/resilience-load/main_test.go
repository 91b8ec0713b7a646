package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"resilience/internal/service"
	"resilience/internal/service/router"
)

// TestRunAgainstRealService drives the full load flow — backpressure
// burst plus seeded scenario stream with oracle comparison — against an
// in-process service sized to guarantee queue-full rejections.
func TestRunAgainstRealService(t *testing.T) {
	srv := service.New(service.Config{Workers: 1, QueueCap: 1, RetryAfter: time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var out bytes.Buffer
	o := options{addr: ts.URL, n: 3, c: 2, seed: 1, maxFaults: 3, burst: 5, sleepMs: 300}
	if err := run(o, &out); err != nil {
		t.Fatalf("load run failed: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "0 mismatches, 0 failures") {
		t.Fatalf("summary missing clean verdict:\n%s", got)
	}
	if strings.Contains(got, " 0 hit queue-full") {
		t.Fatalf("burst saw no backpressure:\n%s", got)
	}
}

// TestRunDetectsMismatch points the oracle comparison at a server that
// returns a plausible but wrong body; the run must fail.
func TestRunDetectsMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kind":"scenario","converged":true}`))
	}))
	defer ts.Close()

	var out bytes.Buffer
	err := run(options{addr: ts.URL, n: 2, c: 1, seed: 1, maxFaults: 2}, &out)
	if err == nil || !strings.Contains(err.Error(), "mismatches") {
		t.Fatalf("tampered responses passed the oracle: err=%v\n%s", err, out.String())
	}
}

// TestRunBurstRequiresRejection: a queue that never fills must fail the
// backpressure phase rather than silently skip it.
func TestRunBurstRequiresRejection(t *testing.T) {
	srv := service.New(service.Config{Workers: 8, QueueCap: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var out bytes.Buffer
	err := run(options{addr: ts.URL, n: 0, c: 1, seed: 1, maxFaults: 2, burst: 2, sleepMs: 10}, &out)
	if err == nil || !strings.Contains(err.Error(), "no 429") {
		t.Fatalf("unsaturated burst passed: err=%v", err)
	}
}

// TestDupPhaseAgainstCachedService: the duplicate-heavy phase against a
// cache-enabled service must clear the hit-rate floor with every
// response byte-identical to the oracle.
func TestDupPhaseAgainstCachedService(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var out bytes.Buffer
	o := options{addr: ts.URL, n: 0, c: 4, seed: 1, maxFaults: 2,
		dupJobs: 60, dupUnique: 6, dupZipf: 1.2, minHitRate: 0.5}
	if err := run(o, &out); err != nil {
		t.Fatalf("dup phase failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "dup phase 60 jobs over 6 uniques") {
		t.Fatalf("summary missing dup phase line:\n%s", out.String())
	}
	st := srv.TelemetrySnapshot()
	if st.Gauge("cache_hits_total") == 0 {
		t.Fatalf("service saw no cache hits: %+v", st.Gauges)
	}
}

// TestDupPhaseThroughRouter: the same phase through a router over two
// replicas — counters are the fleet aggregate scraped off the router.
func TestDupPhaseThroughRouter(t *testing.T) {
	s1 := service.New(service.Config{Workers: 2})
	r1 := httptest.NewServer(s1)
	defer r1.Close()
	defer s1.Shutdown(context.Background())
	s2 := service.New(service.Config{Workers: 2})
	r2 := httptest.NewServer(s2)
	defer r2.Close()
	defer s2.Shutdown(context.Background())

	rt, err := router.New(router.Config{Replicas: []string{r1.URL, r2.URL}, HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	var out bytes.Buffer
	o := options{addr: rts.URL, n: 0, c: 4, seed: 3, maxFaults: 2,
		dupJobs: 60, dupUnique: 6, dupZipf: 1.2, minHitRate: 0.5}
	if err := run(o, &out); err != nil {
		t.Fatalf("dup phase through router failed: %v\n%s", err, out.String())
	}
	// The router's front tier answers repeats, so the hits are its own:
	// a replica sees one only when a repeat races its key's first answer.
	metrics, err := service.NewClient(rts.URL).Get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(metrics), "\n") {
		if v, ok := strings.CutPrefix(line, "resilience_router_front_hits_total "); ok {
			if v == "0" {
				t.Fatal("the router's front tier answered no repeat")
			}
			return
		}
	}
	t.Fatalf("router /metrics has no front_hits_total line:\n%s", metrics)
}

// TestDupPhaseRequiresCache: against a service with the cache disabled,
// the counters never move and the phase must fail loudly rather than
// report a vacuous 0-rate success.
func TestDupPhaseRequiresCache(t *testing.T) {
	srv := service.New(service.Config{Workers: 2, CacheCap: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var out bytes.Buffer
	o := options{addr: ts.URL, n: 0, c: 2, seed: 1, maxFaults: 2,
		dupJobs: 10, dupUnique: 2, dupZipf: 1.2, minHitRate: 0.5}
	err := run(o, &out)
	if err == nil || !strings.Contains(err.Error(), "cache counters never moved") {
		t.Fatalf("cacheless dup phase passed: err=%v\n%s", err, out.String())
	}
}

// TestDupPhaseEnforcesFloor: an unreachable hit-rate floor fails even
// when every byte matches.
func TestDupPhaseEnforcesFloor(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var out bytes.Buffer
	o := options{addr: ts.URL, n: 0, c: 1, seed: 5, maxFaults: 2,
		dupJobs: 2, dupUnique: 2, dupZipf: 1.2, minHitRate: 0.99}
	err := run(o, &out)
	if err == nil || !strings.Contains(err.Error(), "below floor") {
		t.Fatalf("sub-floor hit rate passed: err=%v\n%s", err, out.String())
	}
}
