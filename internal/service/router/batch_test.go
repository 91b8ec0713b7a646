package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"resilience/internal/chaos"
	"resilience/internal/service"
)

func postBatch(t *testing.T, base string, reqs []service.JobRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestBatchByteIdentity pins the /batch contract: every item's body is
// byte-identical to the body a direct /solve of that request returns,
// invalid items fail alone with a 400 without sinking the batch, and
// item order is preserved.
func TestBatchByteIdentity(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	_, r2 := replica(t, service.Config{Workers: 2})
	_, rts := boot(t, Config{}, r1.URL, r2.URL)

	reqs := []service.JobRequest{
		{Scenario: "-grid 6 -ranks 2 -scheme LI -seed 3"},
		{Scenario: "not a scenario"},
		{Scenario: "-grid 7 -ranks 3 -scheme CR-M -ckpt 4 -seed 9 -faults SNF@5:r1", Verdict: true},
	}
	code, body := postBatch(t, rts.URL, reqs)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var items []struct {
		Code int             `json:"code"`
		Body json.RawMessage `json:"body"`
	}
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatalf("batch response does not parse: %v: %s", err, body)
	}
	if len(items) != len(reqs) {
		t.Fatalf("%d items for %d requests", len(items), len(reqs))
	}
	if items[1].Code != http.StatusBadRequest {
		t.Fatalf("invalid item code = %d, want 400", items[1].Code)
	}
	for _, i := range []int{0, 2} {
		if items[i].Code != http.StatusOK {
			t.Fatalf("item %d code = %d: %s", i, items[i].Code, items[i].Body)
		}
		soloCode, solo, _ := post(t, rts.URL, reqs[i])
		if soloCode != http.StatusOK {
			t.Fatalf("solo item %d status %d", i, soloCode)
		}
		if !bytes.Equal([]byte(items[i].Body), solo) {
			t.Fatalf("item %d batch body differs from direct /solve\nbatch: %s\nsolo:  %s", i, items[i].Body, solo)
		}
	}
}

// TestBatchCampaignCounters pins the campaign progress surface: verdict
// jobs routed through /batch move campaign_jobs_total and
// campaign_verdicts_total on /metrics, and deliberately broken verdicts
// move campaign_fail_total.
func TestBatchCampaignCounters(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	_, rts := boot(t, Config{}, r1.URL)

	reqs := []service.JobRequest{
		{Scenario: "-grid 6 -ranks 2 -scheme LI -seed 3", Verdict: true},
		{Scenario: "-grid 7 -ranks 3 -scheme CR-M -ckpt 4 -seed 9 -faults SNF@5:r1",
			Verdict: true, BreakInvariant: chaos.InvConvergence},
		{Scenario: "-grid 6 -ranks 2 -scheme LI -seed 4"}, // not a verdict job
	}
	code, body := postBatch(t, rts.URL, reqs)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := map[string]string{
		"resilience_router_campaign_jobs_total":     "2",
		"resilience_router_campaign_verdicts_total": "2",
		"resilience_router_campaign_fail_total":     "1",
	}
	for name, val := range want {
		found := false
		for _, line := range strings.Split(string(metrics), "\n") {
			if line == name+" "+val {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metrics missing %q = %s:\n%s", name, val, metrics)
		}
	}
}

// TestBatchRejectsMalformed pins batch-level admission errors.
func TestBatchRejectsMalformed(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 1})
	_, rts := boot(t, Config{}, r1.URL)

	if code, _ := postBatch(t, rts.URL, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", code)
	}
	resp, err := http.Post(rts.URL+"/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(rts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch status = %d, want 405", resp.StatusCode)
	}
	big := make([]service.JobRequest, service.MaxBatchItems+1)
	for i := range big {
		big[i] = service.JobRequest{SleepMs: 1}
	}
	if code, _ := postBatch(t, rts.URL, big); code != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d, want 400", code)
	}
}

// counted puts a request counter, by path, in front of a replica, and
// keeps the X-Request-Id of every /batch it receives.
type counted struct {
	*httptest.Server
	mu       sync.Mutex
	paths    map[string]int
	batchIDs []string
}

func countRequests(t *testing.T, h http.Handler) *counted {
	t.Helper()
	c := &counted{paths: make(map[string]int)}
	c.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		c.paths[r.URL.Path]++
		if r.URL.Path == "/batch" {
			c.batchIDs = append(c.batchIDs, r.Header.Get("X-Request-Id"))
		}
		c.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(c.Close)
	return c
}

func (c *counted) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.paths[path]
}

func (c *counted) ids() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.batchIDs...)
}

// verdictJobs returns n distinct verdict-bearing jobs.
func verdictJobs(n int) []service.JobRequest {
	reqs := make([]service.JobRequest, n)
	for i := range reqs {
		reqs[i] = service.JobRequest{Scenario: fmt.Sprintf("-grid 6 -ranks 2 -scheme LI -seed %d", i+1), Verdict: true}
	}
	return reqs
}

// oracleBody is the byte-exact reply a fault-free fabric owes req.
func oracleBody(t *testing.T, req service.JobRequest) []byte {
	t.Helper()
	res, _, err := service.RunJob(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func decodeItems(t *testing.T, body []byte, n int) []service.BatchItem {
	t.Helper()
	var items []service.BatchItem
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatalf("batch response does not parse: %v: %s", err, body)
	}
	if len(items) != n {
		t.Fatalf("%d items for %d requests", len(items), n)
	}
	return items
}

// TestBatchOneRequestPerReplica is the replacement's proof: a 64-item
// batch over two replicas makes exactly two upstream requests, both
// /batch and none /solve, with every item answered in its own slot
// although the owners interleave and one item is invalid. The two round
// trips land in the one forward histogram under the sub-batch IDs
// camp-7.0 and camp-7.1, and every replica span carries an ID that
// starts with the client's.
func TestBatchOneRequestPerReplica(t *testing.T) {
	s1 := service.New(service.Config{Workers: 2})
	s2 := service.New(service.Config{Workers: 2})
	c1, c2 := countRequests(t, s1), countRequests(t, s2)
	_, rts := boot(t, Config{}, c1.URL, c2.URL)

	reqs := verdictJobs(64)
	reqs[17] = service.JobRequest{Scenario: "not a scenario"}
	body, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, rts.URL+"/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Request-Id", "camp-7")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, err %v: %s", resp.StatusCode, err, out)
	}
	items := decodeItems(t, out, len(reqs))

	if a, b := c1.count("/batch"), c2.count("/batch"); a != 1 || b != 1 {
		t.Errorf("upstream /batch requests = %d and %d, want one per replica", a, b)
	}
	if n := c1.count("/solve") + c2.count("/solve"); n != 0 {
		t.Errorf("%d single-item /solve forwards for a batch, want none", n)
	}
	a, b := s1.TelemetrySnapshot().Counter("jobs_admitted_total"), s2.TelemetrySnapshot().Counter("jobs_admitted_total")
	if a == 0 || b == 0 || a+b != 63 {
		t.Errorf("replica admissions %d + %d, want both > 0 and 63 in all", a, b)
	}
	for i, req := range reqs {
		if i == 17 {
			if items[i].Code != http.StatusBadRequest {
				t.Errorf("invalid item code = %d, want 400", items[i].Code)
			}
			continue
		}
		if items[i].Code != http.StatusOK || !bytes.Equal(items[i].Body, oracleBody(t, req)) {
			t.Errorf("slot %d does not hold its own job's answer: %d %s", i, items[i].Code, items[i].Body)
		}
	}

	metrics := scrapeMetrics(t, rts.URL)
	for _, want := range []string{
		"resilience_router_routed_total 63",
		"resilience_router_campaign_jobs_total 63",
		"resilience_router_campaign_verdicts_total 63",
		"resilience_router_batch_forward_seconds_count 2",
		fmt.Sprintf("resilience_router_replica_routed_total{replica=%q} %d", c1.URL, a),
		fmt.Sprintf("resilience_router_replica_routed_total{replica=%q} %d", c2.URL, b),
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "resilience_router_forward_seconds") {
		t.Error("the router exposes a second, /solve-only forward histogram")
	}
	ids := make(map[string]bool)
	for _, id := range append(c1.ids(), c2.ids()...) {
		ids[id] = true
	}
	if len(ids) != 2 || !ids["camp-7.0"] || !ids["camp-7.1"] {
		t.Errorf("sub-batch request IDs %v, want camp-7.0 and camp-7.1", ids)
	}
	for _, s := range []*service.Server{s1, s2} {
		var trace bytes.Buffer
		if err := s.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		reqTracks := strings.Count(trace.String(), `"req `)
		if reqTracks == 0 || reqTracks != strings.Count(trace.String(), `"req camp-7.`) {
			t.Errorf("replica spans not all under the client's batch ID: %d tracks", reqTracks)
		}
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestBatchFailover breaks one of two replicas four ways. Each time the
// broken replica's share of the batch is grouped again on the re-sharded
// ring and answered by the survivor — as sub-batches, never as single
// posts — with nothing lost and nothing run twice.
func TestBatchFailover(t *testing.T) {
	drained := service.New(service.Config{Workers: 1})
	if err := drained.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	broken := map[string]http.Handler{
		"dies before replying": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}),
		"torn body": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "4096")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`[{"code":200,"body":{"sch`))
		}),
		"item-level 503": drained,
		"misaligned item count": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`[]`))
		}),
	}
	for name, handler := range broken {
		t.Run(name, func(t *testing.T) {
			survivor := service.New(service.Config{Workers: 2})
			good, bad := countRequests(t, survivor), countRequests(t, handler)
			rt, rts := boot(t, Config{}, good.URL, bad.URL)

			reqs := verdictJobs(32)
			code, out := postBatch(t, rts.URL, reqs)
			if code != http.StatusOK {
				t.Fatalf("batch status %d: %s", code, out)
			}
			for i, it := range decodeItems(t, out, len(reqs)) {
				if it.Code != http.StatusOK || !bytes.Equal(it.Body, oracleBody(t, reqs[i])) {
					t.Errorf("slot %d: %d %s", i, it.Code, it.Body)
				}
			}
			if n := bad.count("/batch"); n != 1 {
				t.Errorf("broken replica saw %d sub-batches, want 1", n)
			}
			if n := good.count("/batch"); n != 2 {
				t.Errorf("survivor saw %d sub-batches, want 2 (its own share, then the re-grouped one)", n)
			}
			if n := good.count("/solve") + bad.count("/solve"); n != 0 {
				t.Errorf("failover fell back to %d single posts", n)
			}
			if st := survivor.TelemetrySnapshot(); st.Counter("jobs_admitted_total") != 32 || st.Counter("jobs_completed_total") != 32 {
				t.Errorf("survivor admitted %d completed %d, want 32 each", st.Counter("jobs_admitted_total"), st.Counter("jobs_completed_total"))
			}
			if got := rt.routed.Value(); got != 32 {
				t.Errorf("routed_total = %d, want 32", got)
			}
			if got := rt.campaignVerdicts.Value(); got != 32 {
				t.Errorf("campaign_verdicts_total = %d, want 32", got)
			}
			if rt.rerouted.Value() == 0 || rt.noReplica.Value() != 0 {
				t.Errorf("rerouted %d no_replica %d", rt.rerouted.Value(), rt.noReplica.Value())
			}
			for _, m := range rt.Members() {
				if m.Alive != (m.URL == good.URL) {
					t.Errorf("member %s alive = %v", m.URL, m.Alive)
				}
			}
		})
	}
}

// TestBatchAllDead: with no replica reachable every item gets an
// explicit router error in its slot and the batch still answers.
func TestBatchAllDead(t *testing.T) {
	r1 := httptest.NewServer(service.New(service.Config{Workers: 1}))
	url := r1.URL
	r1.Close()
	rt, rts := boot(t, Config{}, url)

	reqs := verdictJobs(4)
	code, out := postBatch(t, rts.URL, reqs)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, out)
	}
	for i, it := range decodeItems(t, out, len(reqs)) {
		if it.Code != http.StatusServiceUnavailable && it.Code != http.StatusBadGateway {
			t.Errorf("slot %d answered %d on a dead fleet: %s", i, it.Code, it.Body)
		}
	}
	if rt.routed.Value() != 0 || rt.campaignJobs.Value() != 4 {
		t.Errorf("routed %d campaign jobs %d, want 0 and 4", rt.routed.Value(), rt.campaignJobs.Value())
	}
}

// TestSolveTravelsAsBatchOfOne: a /solve the front tier misses reaches
// its replica as exactly one POST /batch of one item under the sub-batch
// ID "<id>.0", so the replica runs it as "<id>.0-0", and never as a
// /solve.
func TestSolveTravelsAsBatchOfOne(t *testing.T) {
	s1 := service.New(service.Config{Workers: 2})
	var sizes []int
	var mu sync.Mutex
	c1 := countRequests(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/batch" {
			body, _ := io.ReadAll(r.Body)
			var reqs []service.JobRequest
			json.Unmarshal(body, &reqs)
			mu.Lock()
			sizes = append(sizes, len(reqs))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		s1.ServeHTTP(w, r)
	}))
	_, rts := boot(t, Config{}, c1.URL)

	req := service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 21"}
	code, body, _ := postID(t, rts.URL, "solo-1", req)
	if code != http.StatusOK || !bytes.Equal(body, oracleBody(t, req)) {
		t.Fatalf("solve: %d %s", code, body)
	}
	if n := c1.count("/solve"); n != 0 {
		t.Errorf("router posted %d /solve forwards, want none", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := c1.count("/batch"); n != 1 || len(sizes) != 1 || sizes[0] != 1 {
		t.Errorf("router posted %d /batch of sizes %v, want one of one item", n, sizes)
	}
	if ids := c1.ids(); len(ids) != 1 || ids[0] != "solo-1.0" {
		t.Errorf("sub-batch request IDs %v, want [solo-1.0]", ids)
	}
	var trace bytes.Buffer
	if err := s1.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"req solo-1.0-0"`) {
		t.Error("replica trace has no track for item solo-1.0-0")
	}
}

// TestSolveTornReplicaFailsOver: a /solve whose owner answers its /batch
// torn (200 with no items) obeys the rule a /batch item does: the owner
// is taken off the ring and the survivor answers the oracle's bytes.
func TestSolveTornReplicaFailsOver(t *testing.T) {
	survivor := service.New(service.Config{Workers: 2})
	good := countRequests(t, survivor)
	bad := countRequests(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`[]`))
	}))
	rt, rts := boot(t, Config{}, good.URL, bad.URL)

	// Pick a job the torn replica owns.
	var req service.JobRequest
	for seed := 1; ; seed++ {
		req = service.JobRequest{Scenario: fmt.Sprintf("-grid 8 -ranks 4 -seed %d", seed)}
		j, err := newRouted(req, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rt.target(rt.ring.Load(), j) == bad.URL {
			break
		}
	}
	code, body, _ := post(t, rts.URL, req)
	if code != http.StatusOK || !bytes.Equal(body, oracleBody(t, req)) {
		t.Fatalf("solve past a torn replica: %d %s", code, body)
	}
	if b, g := bad.count("/batch"), good.count("/batch"); b != 1 || g != 1 {
		t.Errorf("torn replica saw %d sub-batches and survivor %d, want 1 each", b, g)
	}
	if n := good.count("/solve") + bad.count("/solve"); n != 0 {
		t.Errorf("failover posted %d /solve forwards, want none", n)
	}
	for _, m := range rt.Members() {
		if m.Alive != (m.URL == good.URL) {
			t.Errorf("member %s alive = %v", m.URL, m.Alive)
		}
	}
	if n := rt.rerouted.Value(); n != 1 {
		t.Errorf("rerouted %d, want 1", n)
	}
}
