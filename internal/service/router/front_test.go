package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resilience/internal/service"
)

// postID is post under a chosen X-Request-Id.
func postID(t *testing.T, base, id string, req service.JobRequest) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// TestFrontTierOutlivesReplicas: once a key's answer has passed through
// the router, the router answers a repeat itself — 200, the oracle's
// bytes, X-Cache: hit, the caller's request ID — on /solve and on
// /batch, with every replica gone.
func TestFrontTierOutlivesReplicas(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	_, r2 := replica(t, service.Config{Workers: 2})
	rt, rts := boot(t, Config{}, r1.URL, r2.URL)

	req := service.JobRequest{Scenario: "-grid 8 -ranks 4 -scheme CR-M -ckpt 5 -seed 7 -faults SWO@5:r1"}
	want := oracleBody(t, req)
	if code, body, _ := post(t, rts.URL, req); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("first solve: %d %s", code, body)
	}
	r1.Close()
	r2.Close()

	code, body, hdr := postID(t, rts.URL, "front-1", req)
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("repeat with no replica: %d %s, want the oracle's bytes", code, body)
	}
	for k, v := range map[string]string{"X-Cache": "hit", "X-Request-Id": "front-1", "Content-Type": "application/json"} {
		if got := hdr.Get(k); got != v {
			t.Errorf("repeat %s %q, want %q", k, got, v)
		}
	}
	code, out := postBatch(t, rts.URL, []service.JobRequest{req})
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, out)
	}
	if it := decodeItems(t, out, 1)[0]; it.Code != http.StatusOK || !bytes.Equal(it.Body, want) {
		t.Fatalf("batch repeat with no replica: %d %s", it.Code, it.Body)
	}
	if routed, hits := rt.routed.Value(), rt.frontHits(); routed != 1 || hits != 2 {
		t.Errorf("routed %d front hits %d, want 1 and 2", routed, hits)
	}
}

// TestFrontTierAnswersPastAdmission: the front tier answers ahead of the
// router's admission, so a router whose only slot is held, and then a
// draining one, still serves a key it holds while refusing new work.
func TestFrontTierAnswersPastAdmission(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 1, QueueCap: 4})
	rt, rts := boot(t, Config{MaxInflight: 1}, r1.URL)

	cached := service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 11"}
	want := oracleBody(t, cached)
	if code, body, _ := post(t, rts.URL, cached); code != http.StatusOK {
		t.Fatalf("first solve: %d %s", code, body)
	}
	done := make(chan struct{})
	go func() {
		post(t, rts.URL, service.JobRequest{SleepMs: 800})
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.slots) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("filler never took the in-flight slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body, hdr := post(t, rts.URL, cached); code != http.StatusOK || !bytes.Equal(body, want) || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("saturated router answered a held key %d %q: %s", code, hdr.Get("X-Cache"), body)
	}
	if code, body, _ := post(t, rts.URL, service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 12"}); code != http.StatusTooManyRequests {
		t.Fatalf("saturated router answered a new key %d: %s", code, body)
	}
	<-done

	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := post(t, rts.URL, cached); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("draining router answered a held key %d: %s", code, body)
	}
	if code, body, _ := post(t, rts.URL, service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 12"}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining router answered a new key %d: %s", code, body)
	}
}

// TestFrontTierBatchForwardsOnlyMisses: in a /batch that mixes keys the
// router holds with new ones, only the new ones reach a replica, and
// every slot still holds its own job's answer in order.
func TestFrontTierBatchForwardsOnlyMisses(t *testing.T) {
	s1, r1 := replica(t, service.Config{Workers: 2})
	s2, r2 := replica(t, service.Config{Workers: 2})
	_, rts := boot(t, Config{}, r1.URL, r2.URL)

	jobs := verdictJobs(8)
	var warm, mixed []service.JobRequest
	for i, j := range jobs {
		if i%2 == 1 {
			warm = append(warm, j)
		}
		mixed = append(mixed, j)
	}
	if code, out := postBatch(t, rts.URL, warm); code != http.StatusOK {
		t.Fatalf("warm batch: %d %s", code, out)
	}
	lookups := func() (hits, misses float64) {
		for _, s := range []*service.Server{s1, s2} {
			snap := s.TelemetrySnapshot()
			hits += snap.Gauge("cache_hits_total")
			misses += snap.Gauge("cache_misses_total")
		}
		return hits, misses
	}
	h0, m0 := lookups()
	code, out := postBatch(t, rts.URL, mixed)
	if code != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", code, out)
	}
	for i, it := range decodeItems(t, out, len(mixed)) {
		if it.Code != http.StatusOK || !bytes.Equal(it.Body, oracleBody(t, mixed[i])) {
			t.Errorf("slot %d does not hold its own job's answer: %d %s", i, it.Code, it.Body)
		}
	}
	h1, m1 := lookups()
	if h1 != h0 || m1-m0 != float64(len(mixed)-len(warm)) {
		t.Errorf("replicas saw %v hits and %v misses, want 0 and %d: only the new items travel", h1-h0, m1-m0, len(mixed)-len(warm))
	}
}

// scriptedBatch is a replica stub that answers every /batch item with the
// status script holds: a scenario-shaped body for a 200, an error body
// for anything else.
func scriptedBatch(t *testing.T, script *atomic.Int64) *counted {
	t.Helper()
	return countRequests(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs, err := service.DecodeBatch(r.Body)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		code := int(script.Load())
		body := service.ErrorBody("scripted")
		if code == http.StatusOK {
			body = []byte(`{"kind":"scenario"}`)
		}
		items := make([]service.BatchItem, len(reqs))
		for i := range items {
			items[i] = service.BatchItem{Code: code, Body: body}
		}
		service.WriteJSON(w, http.StatusOK, items)
	}))
}

// TestFrontTierStoresOnlyReplica200s: replica 429s and 504s — on /solve
// and inside a /batch — and sleep jobs' 200s are never stored, so their
// repeats reach a replica again; a replica's 200 to a cacheable job is.
func TestFrontTierStoresOnlyReplica200s(t *testing.T) {
	var script atomic.Int64
	stub := scriptedBatch(t, &script)
	rt, rts := boot(t, Config{}, stub.URL)

	req := service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 5"}
	forwards := 0
	for _, code := range []int{http.StatusTooManyRequests, http.StatusGatewayTimeout} {
		script.Store(int64(code))
		for i := 0; i < 2; i++ {
			if got, body, _ := post(t, rts.URL, req); got != code {
				t.Fatalf("scripted %d answered %d: %s", code, got, body)
			}
			forwards++
		}
		batchCode, out := postBatch(t, rts.URL, []service.JobRequest{req})
		if it := decodeItems(t, out, 1)[0]; batchCode != http.StatusOK || it.Code != code {
			t.Fatalf("scripted batch item %d answered %d/%d", code, batchCode, it.Code)
		}
		forwards++
	}
	if n := stub.count("/batch"); n != forwards {
		t.Errorf("stub saw %d forwards, want %d: an error answer was stored", n, forwards)
	}

	sleeper, sleeperTS := replica(t, service.Config{Workers: 1})
	rt2, rts2 := boot(t, Config{}, sleeperTS.URL)
	for i := 0; i < 2; i++ {
		if code, body, _ := post(t, rts2.URL, service.JobRequest{SleepMs: 1}); code != http.StatusOK {
			t.Fatalf("sleep job %d answered %d: %s", i, code, body)
		}
	}
	if n := sleeper.TelemetrySnapshot().Counter("jobs_admitted_total"); n != 2 {
		t.Errorf("replica admitted %d of 2 identical sleep jobs: a sleep answer was stored", n)
	}
	if n := rt.front.Len() + rt2.front.Len(); n != 0 {
		t.Fatalf("front tier holds %d entries after only errors and sleeps", n)
	}

	script.Store(http.StatusOK)
	for i := 0; i < 2; i++ {
		if code, body, _ := post(t, rts.URL, req); code != http.StatusOK || !strings.Contains(string(body), "scenario") {
			t.Fatalf("scripted 200 answered %d: %s", code, body)
		}
	}
	if n := stub.count("/batch"); n != forwards+1 {
		t.Errorf("stub saw %d forwards, want %d: a replica 200 was not stored", n, forwards+1)
	}
}
