package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// doBatch sends reqs to ts's /batch under the given request ID and
// decodes the aligned items (nil when the batch itself was refused).
func doBatch(ts *httptest.Server, id string, reqs []JobRequest) (int, []BatchItem, error) {
	body, err := json.Marshal(reqs)
	if err != nil {
		return 0, nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/batch", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("X-Request-Id", id)
	resp, err := ts.Client().Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var items []BatchItem
	if err := json.Unmarshal(got, &items); err != nil {
		return 0, nil, fmt.Errorf("batch reply does not parse: %v: %s", err, got)
	}
	if len(items) != len(reqs) {
		return 0, nil, fmt.Errorf("%d items for %d requests", len(items), len(reqs))
	}
	return resp.StatusCode, items, nil
}

func postBatch(t *testing.T, ts *httptest.Server, id string, reqs []JobRequest) (int, []BatchItem) {
	t.Helper()
	code, items, err := doBatch(ts, id, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return code, items
}

// sleepInBackground posts one sleep job to /solve and delivers its
// status (0 on a transport error).
func sleepInBackground(ts *httptest.Server, ms int) <-chan int {
	done := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"sleep_ms":%d}`, ms)))
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func spanNames(srv *Server, reqID string) string {
	var names []string
	for _, sp := range srv.tracer.Spans() {
		if sp.ReqID == reqID {
			names = append(names, sp.Name)
		}
	}
	return strings.Join(names, ",")
}

// TestReplicaBatchBytesEqualSolve pins the replica's /batch contract:
// every item's body is byte-identical to what /solve returns for that
// request — resident (hit), new (miss) and duplicated inside the batch —
// an invalid item answers 400 in its slot without sinking the rest, a
// duplicate is executed once, and every item leaves the stage spans a
// /solve leaves, under "<batch ID>-<slot>".
func TestReplicaBatchBytesEqualSolve(t *testing.T) {
	// ref answers each request alone, on a replica of its own.
	ref := httptest.NewServer(New(Config{Workers: 2}))
	defer ref.Close()

	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resident := JobRequest{Scenario: testScenario}
	fresh := JobRequest{Scenario: "-grid 7 -ranks 3 -scheme CR-M -ckpt 4 -seed 9 -faults SNF@5:r1", Verdict: true}
	if code, _, _ := post(t, ts, resident); code != http.StatusOK {
		t.Fatalf("warm-up answered %d", code)
	}
	admitted := srv.TelemetrySnapshot().Counter("jobs_admitted_total")

	reqs := []JobRequest{
		resident,
		fresh,
		{Scenario: "not a scenario"},
		fresh, // same job again: joins the flight or hits, never runs twice
		{Scenario: "-grid 6 -ranks 2 -scheme LI -seed 3"},
		{SleepMs: 1}, // not cacheable
	}
	code, items := postBatch(t, ts, "b1", reqs)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	for i, req := range reqs {
		wantCode, want, _ := post(t, ref, req)
		if items[i].Code != wantCode {
			t.Errorf("item %d code = %d, /solve answers %d", i, items[i].Code, wantCode)
		}
		if !bytes.Equal(items[i].Body, want) {
			t.Errorf("item %d differs from /solve\nbatch: %s\nsolve: %s", i, items[i].Body, want)
		}
	}
	if items[2].Code != http.StatusBadRequest {
		t.Errorf("invalid item code = %d, want 400", items[2].Code)
	}
	if got := srv.TelemetrySnapshot().Counter("jobs_admitted_total") - admitted; got != 3 {
		t.Errorf("batch admitted %d jobs, want 3 (fresh once, LI, sleep)", got)
	}
	if got := spanNames(srv, "b1-0"); got != "cache-lookup" {
		t.Errorf("hit item spans = %q, want cache-lookup", got)
	}
	for _, want := range []string{"cache-lookup", "admission-wait", "queue", "solve", "encode"} {
		if got := spanNames(srv, "b1-4"); !strings.Contains(got, want) {
			t.Errorf("miss item spans = %q, missing %s", got, want)
		}
	}
}

// TestReplicaBatchCoalescesDuplicates parks a batch of two identical
// jobs behind a busy worker: one is admitted, the other joins its
// flight, and both slots carry the same bytes.
func TestReplicaBatchCoalescesDuplicates(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	sleepDone := sleepInBackground(ts, 300)
	waitFor(t, "sleep never admitted", func() bool { return srv.TelemetrySnapshot().Counter("jobs_admitted_total") == 1 })

	dup := JobRequest{Scenario: testScenario}
	_, items := postBatch(t, ts, "b2", []JobRequest{dup, dup})
	if <-sleepDone != http.StatusOK {
		t.Fatal("sleep job failed")
	}
	if items[0].Code != http.StatusOK || !bytes.Equal(items[0].Body, items[1].Body) {
		t.Fatalf("duplicates answered %d %s / %d %s", items[0].Code, items[0].Body, items[1].Code, items[1].Body)
	}
	_, solo, hdr := post(t, ts, dup)
	if hdr.Get("X-Cache") != "hit" || !bytes.Equal(solo, items[0].Body) {
		t.Fatalf("/solve after the batch: X-Cache %q, body %s", hdr.Get("X-Cache"), solo)
	}
	st := srv.TelemetrySnapshot()
	if st.Gauge("cache_coalesced_total") != 1 || st.Counter("jobs_admitted_total") != 2 {
		t.Fatalf("coalesced %v admitted %d, want 1 and 2 (sleep + one leader)", st.Gauge("cache_coalesced_total"), st.Counter("jobs_admitted_total"))
	}
}

// TestReplicaBatchRejectsMalformed pins the batch-level refusals, which
// are the router's: the two share service.DecodeBatch.
func TestReplicaBatchRejectsMalformed(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	if code, _ := postBatch(t, ts, "", nil); code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", code)
	}
	big := make([]JobRequest, MaxBatchItems+1)
	for i := range big {
		big[i] = JobRequest{SleepMs: 1}
	}
	if code, _ := postBatch(t, ts, "", big); code != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", code)
	}
	for _, body := range []string{"{not json", `[{"scenario":"-grid 8","bogus":1}]`, `{"scenario":"-grid 8"}`} {
		resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q status = %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch status = %d, want 405", resp.StatusCode)
	}
	if st := srv.TelemetrySnapshot(); st.Counter("jobs_admitted_total") != 0 {
		t.Errorf("refused batches admitted %d jobs", st.Counter("jobs_admitted_total"))
	}
}

// TestReplicaBatchNeverRejectsItself: a batch far larger than the queue,
// on an idle replica with one worker and the default queue, comes back
// all 200 — the handler holds at most Workers+1 items in the admission
// queue — and the wall-clock histogram counts exactly the completed jobs.
func TestReplicaBatchNeverRejectsItself(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	reqs := make([]JobRequest, 64)
	for i := range reqs {
		reqs[i] = JobRequest{Scenario: fmt.Sprintf("-grid 6 -ranks 2 -scheme LI -seed %d", i+1), Verdict: true}
	}
	_, items := postBatch(t, ts, "b3", reqs)
	for i, it := range items {
		if it.Code != http.StatusOK {
			t.Fatalf("item %d answered %d: %s", i, it.Code, it.Body)
		}
	}
	st := srv.TelemetrySnapshot()
	if st.Counter("jobs_rejected_total") != 0 || st.Counter("jobs_completed_total") != 64 {
		t.Fatalf("rejected %d completed %d, want 0 and 64", st.Counter("jobs_rejected_total"), st.Counter("jobs_completed_total"))
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "\nresilienced_jobs_rejected_total 0\n") {
		t.Errorf("/metrics does not say resilienced_jobs_rejected_total 0:\n%s", metrics)
	}
	var recorded uint64
	for _, h := range srv.TelemetrySnapshot().HistogramsNamed("solve_wall_seconds") {
		recorded += h.Count
	}
	if recorded != 64 {
		t.Errorf("solve_wall_seconds holds %d samples for 64 completed jobs", recorded)
	}
}

// TestSolveAdmittedBesideBatch: while a batch runs on a one-worker
// replica with the default two-slot queue, it holds one slot, so an
// interactive /solve is admitted, not refused.
func TestSolveAdmittedBesideBatch(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	reqs := make([]JobRequest, 6)
	for i := range reqs {
		reqs[i] = JobRequest{SleepMs: 150}
	}
	batchDone := make(chan error, 1)
	go func() {
		_, _, err := doBatch(ts, "b4", reqs)
		batchDone <- err
	}()
	// One item sleeping on the worker, the next one queued behind it.
	waitFor(t, "batch never filled its share of the queue", func() bool {
		st := srv.TelemetrySnapshot()
		return st.Counter("jobs_admitted_total") == 2 && st.Gauge("queue_depth") == 1
	})
	if code, body, _ := post(t, ts, JobRequest{SleepMs: 1}); code != http.StatusOK {
		t.Fatalf("/solve beside a running batch answered %d: %s", code, body)
	}
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
}

// TestReplicaBatchCancelledStartsNothing: a /batch whose request context
// has already ended starts none of its items — not even cacheable misses,
// which would otherwise run in full on the detached single-flight leader —
// and answers every slot 503 "request abandoned".
func TestReplicaBatchCancelledStartsNothing(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())

	reqs := make([]JobRequest, 8)
	for i := range reqs {
		reqs[i] = JobRequest{Scenario: fmt.Sprintf("-grid 6 -ranks 2 -scheme LI -seed %d", i+1)}
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hr := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, hr)

	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	var items []BatchItem
	if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil || len(items) != len(reqs) {
		t.Fatalf("batch reply %s does not hold %d items: %v", rec.Body, len(reqs), err)
	}
	for i, it := range items {
		if it.Code != http.StatusServiceUnavailable || !strings.Contains(string(it.Body), "request abandoned: context canceled") {
			t.Errorf("slot %d answered %d %s, want 503 request abandoned", i, it.Code, it.Body)
		}
	}
	if n := srv.TelemetrySnapshot().Counter("jobs_admitted_total"); n != 0 {
		t.Errorf("a cancelled batch admitted %d jobs, want 0", n)
	}
}
