package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"resilience/internal/obs"
)

// TestStatsScrapeDuringJobs hammers TelemetrySnapshot(), /metrics and
// /telemetry while jobs complete on the worker pool. Run under -race it
// is the torn-read audit for the stats path: every counter is an atomic
// in the registry and the rank aggregate is copied under the mutex, so a
// scrape that overlaps a completing job must observe neither a data race
// nor an inconsistent histogram (count behind its buckets).
func TestStatsScrapeDuringJobs(t *testing.T) {
	srv := New(Config{Workers: 4, QueueCap: 32, CacheCap: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const jobs = 24
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		var jw sync.WaitGroup
		for i := 0; i < jobs; i++ {
			jw.Add(1)
			go func(i int) {
				defer jw.Done()
				req := JobRequest{SleepMs: 1 + i%3}
				code, body, _ := post(t, ts, req)
				if code != http.StatusOK {
					t.Errorf("job %d: status %d: %s", i, code, body)
				}
			}(i)
		}
		jw.Wait()
	}()

	// Scrapers run until every job has completed, reading all three
	// externally visible views of the same counters.
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := srv.TelemetrySnapshot()
				if st.Counter("jobs_completed_total") > st.Counter("jobs_admitted_total") {
					t.Errorf("torn stats: completed %d > admitted %d", st.Counter("jobs_completed_total"), st.Counter("jobs_admitted_total"))
				}
				for _, get := range []string{"/metrics", "/telemetry"} {
					resp, err := ts.Client().Get(ts.URL + get)
					if err != nil {
						t.Errorf("%s: %v", get, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", get, resp.StatusCode)
					}
					if get == "/telemetry" {
						var snap obs.Snapshot
						if err := json.Unmarshal(body, &snap); err != nil {
							t.Errorf("telemetry snapshot: %v", err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := srv.TelemetrySnapshot()
	if st.Counter("jobs_completed_total") != jobs || st.Counter("jobs_failed_total") != 0 {
		t.Fatalf("stats after drain: %+v", st.Counters)
	}
	// The telemetry gate at unit scope: the wall-clock histogram must
	// account for exactly the completed jobs, and the Prometheus view
	// must agree with the JSON snapshot.
	snap := srv.TelemetrySnapshot()
	h := snap.Histogram("solve_wall_seconds")
	if h.Count != jobs {
		t.Fatalf("solve_wall_seconds count = %d, want %d", h.Count, jobs)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("resilienced_jobs_completed_total %d", jobs)
	if !strings.Contains(string(expo), want) {
		t.Fatalf("/metrics missing %q:\n%s", want, expo)
	}
}
