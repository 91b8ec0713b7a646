package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilience/internal/obs"
	"resilience/internal/service"
)

// replica boots one real in-process solve service behind httptest.
func replica(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// boot assembles a router over the given replica URLs with background
// health probing disabled (tests drive failure detection through
// forwards, deterministically).
func boot(t *testing.T, cfg Config, urls ...string) (*Router, *httptest.Server) {
	t.Helper()
	cfg.Replicas = urls
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = -1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func post(t *testing.T, base string, req service.JobRequest) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
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

// TestRingStability: removing one member must move only the keys that
// member owned — every other key keeps its replica (that is the whole
// point of consistent hashing: a re-shard does not flush every cache).
func TestRingStability(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	full := buildRing(members, 64)
	// Configuration order must not matter.
	shuffled := buildRing([]string{"http://c", "http://a", "http://b"}, 64)
	without := buildRing([]string{"http://a", "http://c"}, 64)

	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		h := fnv64a(fmt.Sprintf("key-%d", i))
		was := full.lookup(h)
		if got := shuffled.lookup(h); got != was {
			t.Fatalf("ring depends on member order: key %d %q vs %q", i, was, got)
		}
		now := without.lookup(h)
		if was == "http://b" {
			moved++
			continue
		}
		if now != was {
			t.Fatalf("key %d moved from surviving member %q to %q", i, was, now)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
	if empty := buildRing(nil, 8); empty.lookup(42) != "" || empty.nth(3) != "" {
		t.Fatal("empty ring did not return empty member")
	}
}

// TestRouterByteIdentityAndAffinity: responses proxied through the
// router are byte-identical to the local oracle, and a repeated key
// lands on the same replica every time. The router answers its own
// repeat from the front tier, so affinity is proven through a second
// router over the same replicas: its first forward of the key must find
// the key in the owning replica's cache, so exactly one replica's cache
// hits move, by one.
func TestRouterByteIdentityAndAffinity(t *testing.T) {
	s1, r1 := replica(t, service.Config{Workers: 2})
	s2, r2 := replica(t, service.Config{Workers: 2})
	_, rts := boot(t, Config{}, r1.URL, r2.URL)
	_, other := boot(t, Config{}, r1.URL, r2.URL)

	jobs := []service.JobRequest{
		{Scenario: "-grid 8 -ranks 4 -scheme LI -seed 3"},
		{Scenario: "-grid 8 -ranks 4 -scheme CR-M -ckpt 5 -seed 7 -faults SWO@5:r1"},
	}
	for _, req := range jobs {
		res, _, err := service.RunJob(context.Background(), req)
		if err != nil {
			t.Fatalf("oracle %+v: %v", req, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		code, body, hdr := post(t, rts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, code, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%+v: proxied body differs from oracle:\n got %s\nwant %s", req, body, want)
		}
		if xc := hdr.Get("X-Cache"); xc != "miss" {
			t.Fatalf("first request X-Cache %q, want miss", xc)
		}
		code2, body2, hdr2 := post(t, rts.URL, req)
		if code2 != http.StatusOK || !bytes.Equal(body2, want) {
			t.Fatalf("%+v: repeat differs (status %d)", req, code2)
		}
		if xc := hdr2.Get("X-Cache"); xc != "hit" {
			t.Fatalf("repeat X-Cache %q, want hit", xc)
		}
		hits := func() (a, b float64) {
			return s1.TelemetrySnapshot().Gauge("cache_hits_total"), s2.TelemetrySnapshot().Gauge("cache_hits_total")
		}
		a0, b0 := hits()
		code3, body3, hdr3 := post(t, other.URL, req)
		if code3 != http.StatusOK || !bytes.Equal(body3, want) {
			t.Fatalf("%+v: second router's answer differs (status %d)", req, code3)
		}
		if xc := hdr3.Get("X-Cache"); xc != "miss" {
			t.Fatalf("second router's X-Cache %q, want miss: its front tier never held the key", xc)
		}
		a1, b1 := hits()
		if da, db := a1-a0, b1-b0; da+db != 1 || da*db != 0 {
			t.Fatalf("%+v: second router's forward moved replica cache hits by %v and %v, want 1 on one replica — key did not route to the same replica", req, da, db)
		}
	}
}

// TestRouterSpreadsKeys: with enough distinct keys both replicas see
// work — the ring actually shards instead of collapsing onto one member.
func TestRouterSpreadsKeys(t *testing.T) {
	s1, r1 := replica(t, service.Config{Workers: 2})
	s2, r2 := replica(t, service.Config{Workers: 2})
	_, rts := boot(t, Config{}, r1.URL, r2.URL)

	for seed := 1; seed <= 12; seed++ {
		req := service.JobRequest{Scenario: fmt.Sprintf("-grid 8 -ranks 4 -seed %d", seed)}
		if code, body, _ := post(t, rts.URL, req); code != http.StatusOK {
			t.Fatalf("seed %d: %d %s", seed, code, body)
		}
	}
	a, b := s1.TelemetrySnapshot().Counter("jobs_admitted_total"), s2.TelemetrySnapshot().Counter("jobs_admitted_total")
	if a == 0 || b == 0 {
		t.Fatalf("keys did not spread: replica admissions %d / %d", a, b)
	}
	if a+b != 12 {
		t.Fatalf("admissions %d+%d, want 12 total", a, b)
	}
}

// TestRouterForwards429: a saturated replica's 429 — body and status —
// passes through the router untouched, under the router's own
// Retry-After hint.
func TestRouterForwards429(t *testing.T) {
	s1, r1 := replica(t, service.Config{Workers: 1, QueueCap: 1, RetryAfter: 2 * time.Second})
	_, rts := boot(t, Config{RetryAfter: 5 * time.Second}, r1.URL)

	// Fill the worker and the single queue slot with sleeps, and wait
	// until the replica's counters prove both are occupied before
	// probing — otherwise the probe can race past the fillers.
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			post(t, rts.URL, service.JobRequest{SleepMs: 800})
			release <- struct{}{}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s1.TelemetrySnapshot().Counter("jobs_admitted_total") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fillers never saturated the replica: %+v", s1.TelemetrySnapshot().Counters)
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body, hdr := post(t, rts.URL, service.JobRequest{SleepMs: 1})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated replica answered %d through the router: %s", code, body)
	}
	if got := hdr.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After %q, want the router's 5", got)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("429 body not the replica's: %s", body)
	}
	<-release
	<-release
}

// TestRouterSaturation: the router's own admission bound answers 429
// with its configured Retry-After once MaxInflight forwards are parked.
func TestRouterSaturation(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 1, QueueCap: 4})
	rt, rts := boot(t, Config{MaxInflight: 1, RetryAfter: 3 * time.Second}, r1.URL)

	done := make(chan struct{})
	go func() {
		post(t, rts.URL, service.JobRequest{SleepMs: 800})
		close(done)
	}()
	// Wait until the filler actually holds the single in-flight slot
	// before probing, so the probe cannot race in first.
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.slots) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("filler never took the in-flight slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, body, hdr := post(t, rts.URL, service.JobRequest{SleepMs: 1})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated router answered %d: %s", code, body)
	}
	if got := hdr.Get("Retry-After"); got != "3" {
		t.Fatalf("router Retry-After %q, want 3", got)
	}
	if !strings.Contains(string(body), "router saturated") {
		t.Fatalf("unexpected 429 body: %s", body)
	}
	<-done
	if rt.rejected.Value() == 0 {
		t.Fatal("router rejection counter never moved")
	}
}

// TestRouterCallerGivesUp: a client that abandons a slow job frees the
// router's only slot at once, and the abandoned forward is not a replica
// fault: the replica stays on the ring and nothing is rerouted.
func TestRouterCallerGivesUp(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	rt, rts := boot(t, Config{MaxInflight: 1}, r1.URL)

	body, _ := json.Marshal(service.JobRequest{SleepMs: 5000})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, rts.URL+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(hr); err == nil {
		resp.Body.Close()
		t.Fatalf("slow job answered %d before its client gave up", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Second)
	for len(rt.slots) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned forward still holds the router's slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body, _ := post(t, rts.URL, service.JobRequest{SleepMs: 1}); code != http.StatusOK {
		t.Fatalf("next job after the abandoned one answered %d: %s", code, body)
	}
	for _, m := range rt.Members() {
		if !m.Alive {
			t.Fatalf("replica %s marked down for its caller's cancellation", m.URL)
		}
	}
	if n := rt.rerouted.Value(); n != 0 {
		t.Fatalf("rerouted %d jobs after a cancellation, want 0", n)
	}
}

// TestRouterFailover: killing a replica mid-fleet re-shards the ring on
// the first failed forward; every request still succeeds and the dead
// member is marked down.
func TestRouterFailover(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	s2 := service.New(service.Config{Workers: 2})
	r2 := httptest.NewServer(s2)
	rt, rts := boot(t, Config{}, r1.URL, r2.URL)

	r2.Close() // hard replica death: connections refused from here on

	for seed := 1; seed <= 10; seed++ {
		req := service.JobRequest{Scenario: fmt.Sprintf("-grid 8 -ranks 4 -seed %d", seed)}
		res, _, err := service.RunJob(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(res)
		code, body, _ := post(t, rts.URL, req)
		if code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("seed %d after replica death: %d %s", seed, code, body)
		}
	}
	alive := 0
	for _, m := range rt.Members() {
		if m.Alive {
			alive++
			if m.URL != r1.URL {
				t.Fatalf("dead replica %q still alive in membership", m.URL)
			}
		}
	}
	if alive != 1 {
		t.Fatalf("alive members %d, want 1", alive)
	}
	if rt.rerouted.Value() == 0 {
		t.Fatal("failover never rerouted")
	}
}

// TestRouterAllDead: with every replica unreachable the router answers
// an explicit error instead of spinning.
func TestRouterAllDead(t *testing.T) {
	r1 := httptest.NewServer(service.New(service.Config{Workers: 1}))
	url := r1.URL
	r1.Close()
	_, rts := boot(t, Config{}, url)

	code, body, _ := post(t, rts.URL, service.JobRequest{Scenario: "-grid 8 -seed 1"})
	if code != http.StatusServiceUnavailable && code != http.StatusBadGateway {
		t.Fatalf("dead fleet answered %d: %s", code, body)
	}
}

// TestRouterMembershipAPI: POST /replicas adds and removes members and
// re-shards; GET lists the current set.
func TestRouterMembershipAPI(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	_, r2 := replica(t, service.Config{Workers: 2})
	rt, rts := boot(t, Config{}, r1.URL)

	chg, _ := json.Marshal(map[string][]string{"add": {r2.URL}})
	resp, err := http.Post(rts.URL+"/replicas", "application/json", bytes.NewReader(chg))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("membership add: %d", resp.StatusCode)
	}
	if got := len(rt.Members()); got != 2 {
		t.Fatalf("members after add: %d", got)
	}

	rm, _ := json.Marshal(map[string][]string{"remove": {r1.URL}})
	resp, err = http.Post(rts.URL+"/replicas", "application/json", bytes.NewReader(rm))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	members := rt.Members()
	if len(members) != 1 || members[0].URL != r2.URL {
		t.Fatalf("members after remove: %+v", members)
	}
	// Work still routes — now necessarily to r2.
	if code, body, _ := post(t, rts.URL, service.JobRequest{Scenario: "-grid 8 -seed 4"}); code != http.StatusOK {
		t.Fatalf("post-membership solve: %d %s", code, body)
	}

	resp, err = http.Get(rts.URL + "/replicas")
	if err != nil {
		t.Fatal(err)
	}
	list, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(list), r2.URL) || strings.Contains(string(list), r1.URL) {
		t.Fatalf("GET /replicas listing wrong: %s", list)
	}
}

// TestRouterHealthProbeRevives: the background prober takes a draining
// replica off the ring and brings a recovered one back.
func TestRouterHealthProbeRevives(t *testing.T) {
	s1, r1 := replica(t, service.Config{Workers: 2})
	_, r2 := replica(t, service.Config{Workers: 2})
	rt, _ := boot(t, Config{HealthEvery: 20 * time.Millisecond}, r1.URL, r2.URL)
	defer rt.Shutdown(context.Background())

	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		alive := 0
		for _, m := range rt.Members() {
			if m.Alive {
				alive++
			}
		}
		if alive == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never detected the draining replica: %+v", rt.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterDrain: Shutdown stops admission with an explicit 503 and
// flips /healthz; a second Shutdown finds the router drained.
func TestRouterDrain(t *testing.T) {
	_, r1 := replica(t, service.Config{Workers: 2})
	rt, rts := boot(t, Config{}, r1.URL)

	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body, _ := post(t, rts.URL, service.JobRequest{Scenario: "-grid 8 -seed 1"})
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("post-drain solve: %d %s", code, body)
	}
	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRouterMetricsAggregation: /metrics carries router counters,
// per-replica queue depth, and the fleet-aggregate cache hit counters:
// the replicas' scraped counters plus the front tier's hits. Here the
// two repeats are front-tier hits, so no replica counts a hit and only
// the first request is routed.
func TestRouterMetricsAggregation(t *testing.T) {
	s1, r1 := replica(t, service.Config{Workers: 2})
	s2, r2 := replica(t, service.Config{Workers: 2})
	_, rts := boot(t, Config{}, r1.URL, r2.URL)

	req := service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 5"}
	for i := 0; i < 3; i++ {
		if code, body, _ := post(t, rts.URL, req); code != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, code, body)
		}
	}
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	for _, s := range []*service.Server{s1, s2} {
		if h := s.TelemetrySnapshot().Gauge("cache_hits_total"); h != 0 {
			t.Errorf("a replica counted %v cache hits, want 0: the repeats are the front tier's", h)
		}
	}
	for _, want := range []string{
		"resilience_router_routed_total 1",
		"resilience_router_front_hits_total 2",
		"resilience_router_replicas_alive 2",
		"resilience_router_cache_hits_total 2",
		"resilience_router_cache_misses_total 1",
		"resilience_router_cache_hit_ratio 0.66",
		"resilience_router_replica_queue_depth{replica=",
		"resilience_router_replica_up{replica=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// fakeReplica serves a fixed telemetry registry the way resilienced does:
// the JSON snapshot on /telemetry and the same values as text on /metrics.
func fakeReplica(t *testing.T, depth, hits, misses float64, wall []float64) *counted {
	t.Helper()
	reg := obs.NewRegistry("resilienced")
	reg.GaugeFunc("queue_depth", func() float64 { return depth })
	reg.GaugeFunc("cache_hits_total", func() float64 { return hits })
	reg.GaugeFunc("cache_misses_total", func() float64 { return misses })
	h := reg.HistogramVec("solve_wall_seconds", "scheme")
	e := reg.HistogramVec("solve_energy_joules", "scheme")
	for i, v := range wall {
		scheme := []string{"LI", "CR-M"}[i%2]
		h.With(scheme).Record(v)
		e.With(scheme).Record(100 * v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { reg.WritePrometheus(w) })
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(reg.Snapshot())
	})
	return countRequests(t, mux)
}

// TestRouterMetricsOneScrapePerReplica: one router /metrics page costs
// each alive replica exactly one GET (its /telemetry snapshot, which
// already carries the queue and cache gauges), and the fleet section of
// the page is, byte for byte, what the two known replicas add up to.
func TestRouterMetricsOneScrapePerReplica(t *testing.T) {
	a := fakeReplica(t, 3, 41, 9, []float64{0.001, 0.002, 0.004, 0.25})
	b := fakeReplica(t, 0, 7, 13, []float64{0.008, 0.5})
	_, rts := boot(t, Config{}, a.URL, b.URL)

	page := scrapeMetrics(t, rts.URL)
	for _, r := range []*counted{a, b} {
		if tel, met := r.count("/telemetry"), r.count("/metrics"); tel != 1 || met != 0 {
			t.Errorf("one router scrape cost replica %s %d /telemetry and %d /metrics GETs, want 1 and 0", r.URL, tel, met)
		}
	}

	first, second, d1, d2 := a.URL, b.URL, 3, 0
	if second < first {
		first, second, d1, d2 = second, first, d2, d1
	}
	want := fmt.Sprintf(`resilience_router_replica_up{replica=%[1]q} 1
resilience_router_replica_routed_total{replica=%[1]q} 0
resilience_router_replica_queue_depth{replica=%[1]q} %[3]d
resilience_router_replica_up{replica=%[2]q} 1
resilience_router_replica_routed_total{replica=%[2]q} 0
resilience_router_replica_queue_depth{replica=%[2]q} %[4]d
resilience_router_cache_hits_total 48
resilience_router_cache_misses_total 22
resilience_router_cache_hit_ratio 0.6857142857142857
resilience_router_fleet_replicas_scraped 2
resilience_router_fleet_solve_wall_seconds_count 6
resilience_router_fleet_solve_wall_seconds_p50 0.0048828125
resilience_router_fleet_solve_wall_seconds_p95 0.625
resilience_router_fleet_solve_wall_seconds_p99 0.625
resilience_router_fleet_solve_energy_joules_count{scheme="CR-M"} 3
resilience_router_fleet_solve_energy_joules_p50{scheme="CR-M"} 28
resilience_router_fleet_solve_energy_joules_p95{scheme="CR-M"} 56
resilience_router_fleet_solve_energy_joules_p99{scheme="CR-M"} 56
resilience_router_fleet_solve_energy_joules_count{scheme="LI"} 3
resilience_router_fleet_solve_energy_joules_p50{scheme="LI"} 0.4375
resilience_router_fleet_solve_energy_joules_p95{scheme="LI"} 0.875
resilience_router_fleet_solve_energy_joules_p99{scheme="LI"} 0.875
`, first, second, d1, d2)
	fleet := page[max(0, strings.Index(page, "resilience_router_replica_up")):]
	if fleet != want {
		t.Errorf("fleet section of /metrics changed\n got:\n%s\nwant:\n%s", fleet, want)
	}
}

// TestForwardConnectionsAreReused: the forward client keeps an idle
// connection for every forward that can be in flight, so N > 2
// concurrent forwards to one replica dial N connections the first time
// and none the second. (On http.DefaultTransport, which keeps two per
// host, the second wave dials N-2 again.)
func TestForwardConnectionsAreReused(t *testing.T) {
	const n = 8
	// The stub answers a wave only once all n of its requests have
	// arrived, so each wave needs n connections at the same time.
	var wave sync.WaitGroup
	var dialed atomic.Int64
	stub := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wave.Done()
		wave.Wait()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`[{"code":200,"body":{}}]`))
	}))
	stub.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	stub.Start()
	t.Cleanup(stub.Close)
	rt, _ := boot(t, Config{}, stub.URL)

	for _, want := range []int64{n, 0} {
		dialed.Store(0)
		wave.Add(n)
		var forwards sync.WaitGroup
		for i := 0; i < n; i++ {
			forwards.Add(1)
			go func(i int) {
				defer forwards.Done()
				j, err := newRouted(service.JobRequest{Scenario: fmt.Sprintf("-grid 8 -seed %d", i+1)}, 0)
				if err != nil {
					t.Error(err)
					return
				}
				items := make([]service.BatchItem, 1)
				if rt.forward(context.Background(), []*routed{j}, items, "wave"); items[0].Code != http.StatusOK {
					t.Errorf("forward %d answered %d: %s", i, items[0].Code, items[0].Body)
				}
			}(i)
		}
		forwards.Wait()
		if got := dialed.Load(); got != want {
			t.Errorf("wave dialed %d connections, want %d", got, want)
		}
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRouterSetsItsOwnHeaders: X-Cache and Retry-After on a /solve are
// the router's. A forwarded cacheable job is a miss and its repeat a
// front-tier hit; a sleep job carries no X-Cache; a replica's 429 and
// the router's own 503 carry the router's hint, although the replica
// sent none.
func TestRouterSetsItsOwnHeaders(t *testing.T) {
	var script atomic.Int64
	script.Store(http.StatusOK)
	stub := scriptedBatch(t, &script)
	_, rts := boot(t, Config{RetryAfter: 4 * time.Second}, stub.URL)

	check := func(name string, req service.JobRequest, code int, xcache, retryAfter string) {
		t.Helper()
		got, body, hdr := post(t, rts.URL, req)
		if got != code || hdr.Get("X-Cache") != xcache || hdr.Get("Retry-After") != retryAfter {
			t.Errorf("%s: %d X-Cache %q Retry-After %q, want %d %q %q: %s",
				name, got, hdr.Get("X-Cache"), hdr.Get("Retry-After"), code, xcache, retryAfter, body)
		}
	}
	cached := service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 31"}
	check("forwarded", cached, http.StatusOK, "miss", "")
	check("repeat", cached, http.StatusOK, "hit", "")
	check("sleep", service.JobRequest{SleepMs: 1}, http.StatusOK, "", "")
	script.Store(http.StatusTooManyRequests)
	check("replica 429", service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 32"}, http.StatusTooManyRequests, "miss", "4")
	check("sleep 429", service.JobRequest{SleepMs: 1}, http.StatusTooManyRequests, "", "4")
	script.Store(http.StatusServiceUnavailable) // the lone replica drains: no replica is left
	check("router 503", service.JobRequest{Scenario: "-grid 8 -ranks 4 -seed 33"}, http.StatusServiceUnavailable, "miss", "4")
}
