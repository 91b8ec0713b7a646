package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilience/internal/chaos"
)

const testScenario = "-grid 8 -ranks 4 -scheme CR-M -ckpt 5 -tol 1e-10 -seed 7 -faults SWO@5:r1,SNF@6:r0"

func post(t *testing.T, ts *httptest.Server, req JobRequest) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got, resp.Header
}

// TestSolveMatchesOfflineOracle is the determinism contract: the HTTP
// response body is byte-identical to marshaling the offline RunJob
// result, at any worker count and under concurrent submission.
func TestSolveMatchesOfflineOracle(t *testing.T) {
	req := JobRequest{Scenario: testScenario}
	oracleRes, _, err := RunJob(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := json.Marshal(oracleRes)
	if err != nil {
		t.Fatal(err)
	}
	if oracleRes.Restarts == 0 || oracleRes.SolutionHash == "" {
		t.Fatalf("oracle scenario exercised no recovery: %+v", oracleRes)
	}

	// With the result cache disabled every request executes: the raw
	// worker-pool path still answers byte-identically at any worker
	// count. With the cache enabled (the default) the six identical
	// requests collapse to at least one execution — hits, coalesced
	// joins, and misses must all serve the same oracle bytes.
	for _, cacheCap := range []int{-1, 0} {
		for _, workers := range []int{1, 4} {
			srv := New(Config{Workers: workers, QueueCap: 16, CacheCap: cacheCap})
			ts := httptest.NewServer(srv)
			var wg sync.WaitGroup
			var xhits atomic.Int64 // replies marked X-Cache: hit
			for i := 0; i < 6; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					code, got, hdr := post(t, ts, req)
					if code != http.StatusOK {
						t.Errorf("workers=%d: status %d: %s", workers, code, got)
						return
					}
					if hdr.Get("X-Cache") == "hit" {
						xhits.Add(1)
					}
					if !bytes.Equal(got, oracle) {
						t.Errorf("workers=%d: response differs from oracle\n got: %s\nwant: %s", workers, got, oracle)
					}
				}()
			}
			wg.Wait()
			ts.Close()
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			st := srv.TelemetrySnapshot()
			admitted, completed := st.Counter("jobs_admitted_total"), st.Counter("jobs_completed_total")
			if failed := st.Counter("jobs_failed_total"); failed != 0 {
				t.Fatalf("workers=%d: %d jobs failed", workers, failed)
			}
			if cacheCap < 0 {
				if admitted != 6 || completed != 6 {
					t.Fatalf("workers=%d uncached: admitted %d completed %d, want 6 and 6", workers, admitted, completed)
				}
			} else {
				hits, misses := st.Gauge("cache_hits_total"), st.Gauge("cache_misses_total")
				coalesced := st.Gauge("cache_coalesced_total")
				if hits+misses != 6 {
					t.Fatalf("workers=%d cached: lookups %v+%v != 6", workers, hits, misses)
				}
				// Every miss either led a flight or joined one. A leader
				// runs the job unless the flight before it already stored
				// the result, which it then serves as a hit; dedup never
				// loses or invents executions.
				late := float64(xhits.Load()) - hits
				if float64(admitted) != misses-coalesced-late || admitted < 1 {
					t.Fatalf("workers=%d cached: admitted %d, misses %v, coalesced %v, late hits %v", workers, admitted, misses, coalesced, late)
				}
				if completed != admitted {
					t.Fatalf("workers=%d cached: completed %d != admitted %d", workers, completed, admitted)
				}
			}
			srv.mu.Lock()
			ranks := srv.ranks
			srv.mu.Unlock()
			if ranks.MsgsSent == 0 || ranks.Flops == 0 {
				t.Fatalf("workers=%d: rank counters not folded: %+v", workers, ranks)
			}
		}
	}
}

// TestSolveLateDuplicateRunsOnce forces the interleaving that once ran a
// job twice: a request misses the cache, and before it reaches the
// single-flight a duplicate's whole flight runs, stores its result and
// ends. The late request must serve that result as a hit, not admit the
// job again, and its second look must not count as a lookup.
func TestSolveLateDuplicateRunsOnce(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	req := JobRequest{Scenario: testScenario}
	var dup flightOut
	armed := true
	srv.afterMiss = func() {
		if armed {
			armed = false
			dup, _ = srv.solve(context.Background(), req, "dup")
		}
	}
	out, xcache := srv.solve(context.Background(), req, "late")
	if n := srv.TelemetrySnapshot().Counter("jobs_admitted_total"); n != 1 {
		t.Fatalf("admitted %d jobs, want 1", n)
	}
	if out.code != http.StatusOK || !bytes.Equal(out.body, dup.body) || xcache != "hit" {
		t.Fatalf("late request answered %d %q (X-Cache %q), want the duplicate's 200 as a hit", out.code, out.body, xcache)
	}
	if hits, misses, _ := srv.results.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("cache counted %d hits and %d misses, want the two lookups' 0 and 2", hits, misses)
	}
}

// TestQueueFullBackpressure fills the single worker and the queue with
// sleep jobs, then demands an immediate 429 with a Retry-After hint —
// and that the queue recovers afterwards.
func TestQueueFullBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sleep := JobRequest{SleepMs: 400}
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := post(t, ts, sleep)
			results <- code
		}()
	}
	// Wait until one sleeps on the worker and one occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.TelemetrySnapshot().Gauge("queue_depth") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body, hdr := post(t, ts, JobRequest{SleepMs: 1})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated queue answered %d (%s), want 429", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	for i := 0; i < 2; i++ {
		if c := <-results; c != http.StatusOK {
			t.Fatalf("in-flight sleep job answered %d", c)
		}
	}
	// Capacity is free again: the same request is admitted now.
	if code, body, _ := post(t, ts, JobRequest{SleepMs: 1}); code != http.StatusOK {
		t.Fatalf("post-drain job answered %d (%s)", code, body)
	}
	st := srv.TelemetrySnapshot()
	if st.Counter("jobs_rejected_total") != 1 || st.Counter("jobs_admitted_total") != 3 {
		t.Fatalf("stats after backpressure: %+v", st.Counters)
	}
}

// TestJobDeadline: a request-level timeout tighter than the server's
// cancels the run mid-flight and surfaces as 504.
func TestJobDeadline(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	code, body, _ := post(t, ts, JobRequest{SleepMs: 5000, TimeoutMs: 30})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired job answered %d (%s), want 504", code, body)
	}
	if st := srv.TelemetrySnapshot(); st.Counter("jobs_failed_total") != 1 {
		t.Fatalf("stats after deadline: %+v", st.Counters)
	}
}

// TestGracefulDrain: Shutdown lets the in-flight job finish, then the
// server refuses new work with 503; a second Shutdown finds it drained.
func TestGracefulDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	got := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, JobRequest{SleepMs: 300})
		got <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.TelemetrySnapshot().Counter("jobs_admitted_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-got; code != http.StatusOK {
		t.Fatalf("in-flight job during drain answered %d, want 200", code)
	}
	if code, body, _ := post(t, ts, JobRequest{SleepMs: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain admission answered %d (%s), want 503", code, body)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestValidateRejects pins the request codec's failure modes to 400s.
func TestValidateRejects(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	cases := []string{
		`{}`,                                  // no kind
		`{"scenario":"-grid banana"}`,         // unparsable scenario
		`{"experiment":"no-such-experiment"}`, // unknown field
		`{"sleep_ms":5,"scenario":"` + testScenario + `"}`, // two kinds
		`{"sleep_ms":5,"timeout_ms":-1}`,                   // negative timeout
		`{"sleep_ms":5,"bogus_field":1}`,                   // unknown field
	}
	for _, body := range cases {
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st := srv.TelemetrySnapshot(); st.Counter("jobs_admitted_total") != 0 {
		t.Fatalf("malformed requests reached the queue: %+v", st.Counters)
	}
}

// TestHealthzAndMetrics exercises the observability endpoints before
// and after a drain.
func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 3})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, _, _ := post(t, ts, JobRequest{Scenario: testScenario}); code != http.StatusOK {
		t.Fatalf("warmup solve answered %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, hz)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"resilienced_jobs_admitted_total 1",
		"resilienced_jobs_completed_total 1",
		`resilienced_solve_virtual_seconds_total{scheme="CR-M"}`,
		"resilienced_rank_msgs_sent_total",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
}

// TestHexFloatRoundTrip pins the bit-exactness of the float codec.
func TestHexFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, 1e-300, 3.141592653589793, 1.0000000000000002} {
		got, err := strconv.ParseFloat(chaos.HexFloat(v), 64)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("chaos.HexFloat(%v) round-tripped to %v", v, got)
		}
	}
	if chaos.HashFloats(nil) == chaos.HashFloats([]float64{0}) {
		t.Fatal("hash ignores length")
	}
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3 + 1e-15}
	if chaos.HashFloats(a) == chaos.HashFloats(b) {
		t.Fatal("hash insensitive to a one-ULP-scale difference")
	}
	if fmt.Sprintf("%d", len(chaos.HashFloats(a))) != "16" {
		t.Fatalf("hash width %d, want 16", len(chaos.HashFloats(a)))
	}
}
