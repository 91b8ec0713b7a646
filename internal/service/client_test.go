package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// scripted is a replica stand-in that answers the n-th request it gets
// (0-based) with script(n, path, jobs), jobs being a /batch body's
// scenarios, and records when each request arrived and what it carried.
type scripted struct {
	mu       sync.Mutex
	arrivals []time.Time
	batches  [][]string
}

func newScripted(t *testing.T, script func(n int, path string, jobs []string, w http.ResponseWriter)) (*scripted, *Client) {
	t.Helper()
	s := &scripted{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var jobs []string
		if r.URL.Path == "/batch" {
			reqs, err := DecodeBatch(r.Body)
			if err != nil {
				t.Errorf("client sent a bad batch: %v", err)
			}
			for _, req := range reqs {
				jobs = append(jobs, req.Scenario)
			}
		}
		s.mu.Lock()
		n := len(s.arrivals)
		s.arrivals = append(s.arrivals, time.Now())
		s.batches = append(s.batches, jobs)
		s.mu.Unlock()
		script(n, r.URL.Path, jobs, w)
	}))
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

func (s *scripted) times() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.arrivals...)
}

func (s *scripted) sent() [][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]string(nil), s.batches...)
}

func jobsNamed(names ...string) []JobRequest {
	reqs := make([]JobRequest, len(names))
	for i, n := range names {
		reqs[i] = JobRequest{Scenario: n}
	}
	return reqs
}

// answered is a 200 item whose body names the job it answers.
func answered(job string) BatchItem {
	return BatchItem{Code: http.StatusOK, Body: json.RawMessage(`"` + job + `"`)}
}

// TestClientRetry drives Client's one retry loop against a scripted
// replica: the Retry-After pause and its cap, the smaller re-sent /batch,
// cancellation and the attempt bound.
func TestClientRetry(t *testing.T) {
	t.Run("whole-batch 429 waits out Retry-After, capped", func(t *testing.T) {
		t.Parallel()
		s, c := newScripted(t, func(n int, _ string, jobs []string, w http.ResponseWriter) {
			if n == 0 {
				w.Header().Set("Retry-After", "5")
				WriteError(w, http.StatusTooManyRequests, "queue full")
				return
			}
			WriteJSON(w, http.StatusOK, []BatchItem{answered(jobs[0])})
		})
		items, err := c.Batch(context.Background(), jobsNamed("a"))
		if err != nil || len(items) != 1 || string(items[0].Body) != `"a"` {
			t.Fatalf("Batch = %+v, %v", items, err)
		}
		at := s.times()
		if len(at) != 2 {
			t.Fatalf("%d requests, want 2", len(at))
		}
		if gap := at[1].Sub(at[0]); gap < maxRetryPause || gap > maxRetryPause+time.Second {
			t.Errorf("resent after %v, want the 5 s hint capped at %v", gap, maxRetryPause)
		}
	})

	t.Run("retryable items travel again as one smaller batch", func(t *testing.T) {
		t.Parallel()
		s, c := newScripted(t, func(n int, path string, jobs []string, w http.ResponseWriter) {
			if path != "/batch" {
				t.Errorf("client posted %s", path)
				WriteError(w, http.StatusNotFound, "no")
				return
			}
			if n == 0 {
				WriteJSON(w, http.StatusOK, []BatchItem{
					answered(jobs[0]),
					{Code: http.StatusTooManyRequests, Body: ErrorBody("queue full")},
					answered(jobs[2]),
					{Code: http.StatusServiceUnavailable, Body: ErrorBody("draining")},
				})
				return
			}
			items := make([]BatchItem, len(jobs))
			for i, j := range jobs {
				items[i] = answered(j)
			}
			WriteJSON(w, http.StatusOK, items)
		})
		items, err := c.Batch(context.Background(), jobsNamed("a", "b", "c", "d"))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{"a", "b", "c", "d"} {
			if items[i].Code != http.StatusOK || string(items[i].Body) != `"`+want+`"` {
				t.Errorf("slot %d = %d %s, want 200 %q", i, items[i].Code, items[i].Body, want)
			}
		}
		if sent := s.sent(); len(sent) != 2 || strings.Join(sent[1], ",") != "b,d" {
			t.Errorf("batches sent %v, want [a b c d] then [b d]", sent)
		}
	})

	t.Run("a cancelled ctx stops within one pause", func(t *testing.T) {
		t.Parallel()
		s, c := newScripted(t, func(_ int, _ string, _ []string, w http.ResponseWriter) {
			w.Header().Set("Retry-After", "2")
			WriteError(w, http.StatusTooManyRequests, "queue full")
		})
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := c.Batch(ctx, jobsNamed("a"))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the ctx's deadline", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("returned %v after ctx ended, want within the 2 s pause", d)
		}
		if n := len(s.times()); n != 1 {
			t.Errorf("%d requests, want 1", n)
		}
	})

	t.Run("the attempt bound ends an endless 429", func(t *testing.T) {
		t.Parallel()
		s, c := newScripted(t, func(_ int, _ string, _ []string, w http.ResponseWriter) {
			WriteError(w, http.StatusTooManyRequests, "queue full")
		})
		resp, _, retries, err := c.Post(context.Background(), "/solve", "", []byte(`{}`))
		if err == nil || !strings.Contains(err.Error(), "still status 429") {
			t.Fatalf("err = %v, want the attempt bound", err)
		}
		if resp == nil || resp.StatusCode != http.StatusTooManyRequests || retries != maxAttempts {
			t.Fatalf("last reply %v after %d retries, want 429 after %d", resp, retries, maxAttempts)
		}
		if n := len(s.times()); n != maxAttempts {
			t.Errorf("%d requests, want %d", n, maxAttempts)
		}
	})
}
