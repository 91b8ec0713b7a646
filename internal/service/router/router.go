package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilience/internal/obs"
	"resilience/internal/service"
	"resilience/internal/service/cache"
)

// Config sizes the router. Replicas is the only required field.
type Config struct {
	// Replicas is the initial replica base URLs (http://host:port).
	Replicas []string
	// VNodes is the virtual nodes per replica on the hash ring
	// (<=0: 64). More vnodes spread keys more evenly; fewer move less
	// data on membership change.
	VNodes int
	// MaxInflight bounds concurrently forwarded requests — the router's
	// own admission queue, mirroring the replica discipline: beyond it
	// the router answers 429 + Retry-After instead of stacking
	// connections (<=0: 256). A /batch is one request however many items
	// it carries, and has at most one sub-batch per replica on the wire.
	MaxInflight int
	// RetryAfter is the hint sent with every 429 and 503 the router
	// answers, its own or a replica's (<=0: 1 s).
	RetryAfter time.Duration
	// HealthEvery is the background health-probe interval (0: 2 s;
	// negative: no background probing — failures are still detected on
	// forward errors).
	HealthEvery time.Duration
}

// forwardTimeout caps one forwarded round-trip, above the replicas'
// default 120 s job timeout.
const forwardTimeout = 150 * time.Second

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.HealthEvery == 0 {
		c.HealthEvery = 2 * time.Second
	}
	return c
}

// member is one configured replica and its routability.
type member struct {
	url   string
	alive bool
}

// Router consistent-hash-routes solve jobs across resilienced replicas.
// It implements http.Handler with the same endpoint surface as a
// replica (/solve, /batch, /healthz, /metrics) plus /replicas for
// membership.
type Router struct {
	cfg    Config
	mux    *http.ServeMux
	client *http.Client
	probe  *http.Client

	// front is the content-addressed front tier: replica 200 bodies by
	// canonical key, filled only in account and read only in frontHit.
	// A key names content, not a replica, so membership changes never
	// invalidate it.
	front *cache.Cache[[]byte]

	// gate admits requests into slots and drains them, through the one
	// protocol the replicas use too.
	gate  service.Gate
	slots chan struct{}

	// mu guards membership; the assembled ring is swapped atomically so
	// routing reads never block on membership churn.
	mu      sync.Mutex
	members map[string]*member
	ring    atomic.Pointer[ring]

	rr atomic.Uint64 // round-robin cursor for keyless jobs

	stopHealth chan struct{}
	stopOnce   sync.Once // the first Shutdown closes stopHealth
	healthDone chan struct{}

	// The telemetry plane: counters and the forward-latency histogram
	// live in reg; the /metrics collector scrapes every replica's
	// /telemetry snapshot and bucket-merges the histograms into true
	// fleet-wide quantiles. flight is the process crash flight recorder.
	reg    *obs.Registry
	flight *obs.FlightRecorder

	routed        *obs.Counter
	rejected      *obs.Counter
	rerouted      *obs.Counter
	noReplica     *obs.Counter
	hBatchForward *obs.HistogramVec // one sub-batch round trip, wall seconds

	// Campaign progress: verdict-bearing jobs forwarded for the chaos
	// fleet, how many came back as verdicts, and how many of those were
	// invariant violations. On /metrics and /telemetry like every other
	// registry entry, so `watch curl /metrics` is the campaign dashboard.
	campaignJobs     *obs.Counter
	campaignVerdicts *obs.Counter
	campaignFail     *obs.Counter

	perMu     sync.Mutex
	perRouted map[string]int64
}

// New builds a Router and starts its health prober (unless disabled).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	// The forward client keeps as many idle connections per replica as
	// there can be forwards in flight. http.DefaultTransport keeps two,
	// so every third concurrent forward would dial, and drop, its own.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 0
	transport.MaxIdleConnsPerHost = cfg.MaxInflight
	rt := &Router{
		cfg:        cfg,
		client:     &http.Client{Transport: transport, Timeout: forwardTimeout},
		probe:      &http.Client{Timeout: 2 * time.Second},
		front:      cache.New[[]byte](service.DefaultCacheCap, 0), // 0: the default shard count
		slots:      make(chan struct{}, cfg.MaxInflight),
		members:    make(map[string]*member),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
		perRouted:  make(map[string]int64),
		flight:     obs.DefaultFlight(),
	}
	for _, u := range cfg.Replicas {
		u = strings.TrimRight(u, "/")
		if u == "" {
			return nil, errors.New("router: empty replica URL")
		}
		rt.members[u] = &member{url: u, alive: true}
	}
	rt.reshard()
	rt.initMetrics()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/solve", rt.handleSolve)
	rt.mux.HandleFunc("/batch", rt.handleBatch)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/replicas", rt.handleReplicas)
	rt.mux.HandleFunc("/telemetry", rt.handleTelemetry)
	rt.mux.Handle("/debug/flightrecorder", rt.flight)
	if cfg.HealthEvery > 0 {
		go rt.healthLoop()
	} else {
		close(rt.healthDone)
	}
	return rt, nil
}

// initMetrics builds the registry. Registration order is the exposition
// order, kept compatible with the hand-rolled /metrics this replaces
// (resilience_router_routed_total, ..._replica_up{replica=...}, the
// fleet cache counters); the fleet-quantile lines are new.
func (rt *Router) initMetrics() {
	r := obs.NewRegistry("resilience_router")
	rt.reg = r
	rt.routed = r.Counter("routed_total")
	rt.rejected = r.Counter("rejected_total")
	rt.rerouted = r.Counter("rerouted_total")
	rt.noReplica = r.Counter("no_replica_total")
	rt.campaignJobs = r.Counter("campaign_jobs_total")
	rt.campaignVerdicts = r.Counter("campaign_verdicts_total")
	rt.campaignFail = r.Counter("campaign_fail_total")
	r.GaugeFunc("front_hits_total", func() float64 { return float64(rt.frontHits()) })
	r.GaugeFunc("max_inflight", func() float64 { return float64(rt.cfg.MaxInflight) })
	r.GaugeFunc("replicas", func() float64 { return float64(len(rt.Members())) })
	r.GaugeFunc("replicas_alive", func() float64 {
		n := 0
		for _, m := range rt.Members() {
			if m.Alive {
				n++
			}
		}
		return float64(n)
	})
	rt.hBatchForward = r.HistogramVec("batch_forward_seconds", "")
	r.Collector(rt.exposeFleet)
}

// frontHits is how many answers the front tier gave.
func (rt *Router) frontHits() int64 {
	hits, _, _ := rt.front.Stats()
	return hits
}

// exposeFleet renders the per-replica rows and the fleet view from one
// /telemetry snapshot per alive replica: queue depth and summed cache
// counters from its gauges, plus true fleet-wide latency and energy
// quantiles from exact bucket-merges of its histograms. Member order is
// URL-sorted, so the output is deterministic for a fixed fleet state.
// The fleet's cache hits include the front tier's; its misses are the
// replicas' alone, since a front-tier miss goes on to be a replica
// lookup.
func (rt *Router) exposeFleet(e *obs.Expo) {
	members := rt.Members()
	rt.perMu.Lock()
	routedCopy := make(map[string]int64, len(rt.perRouted))
	for k, v := range rt.perRouted {
		routedCopy[k] = v
	}
	rt.perMu.Unlock()

	hits, misses := float64(rt.frontHits()), 0.0
	var fleet obs.Snapshot
	scraped := 0
	for _, m := range members {
		up := int64(0)
		if m.Alive {
			up = 1
		}
		e.IntL("replica_up", "replica", m.URL, up)
		e.IntL("replica_routed_total", "replica", m.URL, routedCopy[m.URL])
		if !m.Alive {
			continue
		}
		if snap, ok := rt.scrapeTelemetry(m.URL); ok {
			e.LineL("replica_queue_depth", "replica", m.URL, snap.Gauge("queue_depth"))
			hits += snap.Gauge("cache_hits_total")
			misses += snap.Gauge("cache_misses_total")
			obs.Merge(&fleet, snap)
			scraped++
		}
	}
	e.Int("cache_hits_total", int64(hits))
	e.Int("cache_misses_total", int64(misses))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	e.Line("cache_hit_ratio", ratio)

	// Fleet quantiles. Because every histogram shares one fixed bucket
	// layout, the merged quantiles are the true quantiles of the pooled
	// sample stream — not an average of per-replica quantiles.
	e.Int("fleet_replicas_scraped", int64(scraped))
	wall := fleet.Histogram("solve_wall_seconds")
	e.Int("fleet_solve_wall_seconds_count", int64(wall.Count))
	e.Line("fleet_solve_wall_seconds_p50", wall.Quantile(0.50))
	e.Line("fleet_solve_wall_seconds_p95", wall.Quantile(0.95))
	e.Line("fleet_solve_wall_seconds_p99", wall.Quantile(0.99))
	for _, h := range fleet.HistogramsNamed("solve_energy_joules") {
		e.IntL("fleet_solve_energy_joules_count", "scheme", h.Label, int64(h.Count))
		e.LineL("fleet_solve_energy_joules_p50", "scheme", h.Label, h.Quantile(0.50))
		e.LineL("fleet_solve_energy_joules_p95", "scheme", h.Label, h.Quantile(0.95))
		e.LineL("fleet_solve_energy_joules_p99", "scheme", h.Label, h.Quantile(0.99))
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Shutdown stops admission, waits for in-flight forwards (the health
// prober keeps the ring current meanwhile), then stops the prober. ctx
// bounds the wait; the prober stops whether or not it ended first, and a
// later Shutdown waits for the forwards still in flight. The replicas
// drain on their own schedule.
func (rt *Router) Shutdown(ctx context.Context) error {
	err := rt.gate.Drain(ctx)
	rt.stopOnce.Do(func() { close(rt.stopHealth) })
	<-rt.healthDone
	rt.client.CloseIdleConnections()
	rt.probe.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	return nil
}

// reshard rebuilds the ring from the currently-alive membership.
// Callers must hold mu or be inside New.
func (rt *Router) reshard() {
	alive := make([]string, 0, len(rt.members))
	for _, m := range rt.members {
		if m.alive {
			alive = append(alive, m.url)
		}
	}
	rt.ring.Store(buildRing(alive, rt.cfg.VNodes))
}

// markDown takes url off the ring after a forward failure and re-shards.
// Reports whether the membership actually changed (false if already down
// or since removed).
func (rt *Router) markDown(url string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, ok := rt.members[url]
	if !ok || !m.alive {
		return false
	}
	m.alive = false
	rt.reshard()
	return true
}

// SetMembers applies adds and removals and re-shards. Added replicas
// start alive (the prober or first forward will correct that within one
// cycle if wrong).
func (rt *Router) SetMembers(add, remove []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, u := range remove {
		delete(rt.members, strings.TrimRight(u, "/"))
	}
	for _, u := range add {
		u = strings.TrimRight(u, "/")
		if u == "" {
			continue
		}
		if _, ok := rt.members[u]; !ok {
			rt.members[u] = &member{url: u, alive: true}
		}
	}
	rt.reshard()
}

// Members returns the membership snapshot, sorted by URL.
func (rt *Router) Members() []struct {
	URL   string
	Alive bool
} {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]struct {
		URL   string
		Alive bool
	}, 0, len(rt.members))
	for _, m := range rt.members {
		out = append(out, struct {
			URL   string
			Alive bool
		}{m.url, m.alive})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// healthLoop probes /healthz on every member: an OK answer revives it,
// anything else (including a replica's draining 503) takes it off the
// ring so new keys re-shard away before forwards start failing.
func (rt *Router) healthLoop() {
	defer close(rt.healthDone)
	tick := time.NewTicker(rt.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopHealth:
			return
		case <-tick.C:
		}
		rt.mu.Lock()
		urls := make([]string, 0, len(rt.members))
		for u := range rt.members {
			urls = append(urls, u)
		}
		rt.mu.Unlock()
		changed := false
		for _, u := range urls {
			alive := rt.probeOne(u)
			rt.mu.Lock()
			if m, ok := rt.members[u]; ok && m.alive != alive {
				m.alive = alive
				changed = true
			}
			rt.mu.Unlock()
		}
		if changed {
			rt.mu.Lock()
			rt.reshard()
			rt.mu.Unlock()
		}
	}
}

// probeOne reports whether url answers /healthz with 200.
func (rt *Router) probeOne(url string) bool {
	resp, err := rt.probe.Get(url + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	reqID := obs.RequestID(w, r)
	if r.Method != http.MethodPost {
		service.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req service.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		service.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := newRouted(req, 0)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The front tier answers ahead of admission, as a replica's cache
	// does ahead of its queue: a saturated or draining router still
	// serves what it holds.
	if body, ok := rt.frontHit(j); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.Write(body)
		return
	}
	if !rt.admit(w, reqID, "router saturated") {
		return
	}
	defer rt.release()

	// A miss travels as a batch of one, so it obeys the sub-batch rules.
	items := make([]service.BatchItem, 1)
	rt.forward(r.Context(), []*routed{j}, items, reqID)
	if j.cacheable {
		w.Header().Set("X-Cache", "miss")
	}
	if items[0].Code == http.StatusTooManyRequests || items[0].Code == http.StatusServiceUnavailable {
		rt.setRetryAfter(w)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(items[0].Code)
	w.Write(items[0].Body)
}

// admit is router-side admission, mirroring the replica queue
// discipline: explicit 429 (or 503 while draining) + Retry-After, never
// an implicitly stalled client. It takes one slot for the request — a
// /solve or a whole /batch — or writes the refusal and reports false.
// release returns the slot.
func (rt *Router) admit(w http.ResponseWriter, reqID, saturated string) bool {
	ok, draining := rt.gate.Enter(func() bool {
		select {
		case rt.slots <- struct{}{}:
			return true
		default:
			return false
		}
	})
	switch {
	case draining:
		rt.setRetryAfter(w)
		service.WriteError(w, http.StatusServiceUnavailable, "draining")
	case !ok:
		rt.rejected.Inc()
		rt.flight.Note("router-rejected", reqID, saturated)
		rt.setRetryAfter(w)
		service.WriteError(w, http.StatusTooManyRequests, "router saturated")
	}
	return ok
}

// setRetryAfter puts the router's own hint on a 429 or 503.
func (rt *Router) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(service.RetryAfterSeconds(rt.cfg.RetryAfter)))
}

func (rt *Router) release() {
	<-rt.slots
	rt.gate.Leave()
}

// routerError is an answer the router makes up itself.
type routerError struct {
	code int
	msg  string
}

// failVerdictMarker matches a verdict-bearing job result whose verdict
// line carries status "fail". Matching bytes instead of re-decoding the
// body keeps the campaign counters off the forwarding hot path.
var failVerdictMarker = []byte(`"verdict":"v1 status=fail`)

// routed is one validated job on its way through the ring: where it
// hashes, how many replicas have failed it so far, and which slot of the
// client's batch it answers (0 for /solve, a batch of one).
type routed struct {
	req       service.JobRequest
	key       string
	cacheable bool
	slot      int
	tried     int
}

func newRouted(req service.JobRequest, slot int) (*routed, error) {
	key, cacheable, err := service.CanonicalKey(req)
	if err != nil {
		return nil, err
	}
	return &routed{req: req, key: key, cacheable: cacheable, slot: slot}, nil
}

// target picks j's replica on rg: the key's ring owner, or the next
// member round-robin for a job without a key. Empty when rg is.
func (rt *Router) target(rg *ring, j *routed) string {
	if j.cacheable {
		return rg.lookup(fnv64a(j.key))
	}
	return rg.nth(rt.rr.Add(1) - 1)
}

// fault is why a replica did not answer a job; a nil *fault means it did.
type fault struct {
	kind   faultKind
	detail string
}

type faultKind int

const (
	unreachable faultKind = iota // the round trip failed: nothing came back
	torn                         // something came back that cannot be used
	draining                     // the replica answered this job 503
)

// A draining (or just-booted) replica answers new work 503: re-shard
// away and let another replica take the key. The drained replica's cache
// hits are lost, not its correctness.
var replicaDraining = &fault{kind: draining, detail: "replica draining"}

// failover is the one statement of the routing failure rules, applied to
// every job of a sub-batch that target (found on rg) failed. The replica
// is taken off the ring and the job goes back to be routed on the
// re-sharded ring (retry), unless it has used up its len(members)+1
// attempts, which is what makes a fully dead fleet terminate. Then final
// is its answer — or, for a draining 503, final is nil and the replica's
// own answer stands. A job whose caller's ctx has ended is answered as
// abandoned instead: the replica did not fail it, so the replica stays
// on the ring and the job goes nowhere.
func (rt *Router) failover(ctx context.Context, rg *ring, target, reqID string, j *routed, f *fault) (retry bool, final *routerError) {
	if err := ctx.Err(); err != nil {
		return false, &routerError{http.StatusServiceUnavailable, "request abandoned: " + err.Error()}
	}
	j.tried++
	spent := j.tried > len(rg.members)+1
	changed := rt.markDown(target)
	if changed {
		rt.flight.Note("replica-down", reqID, target+": "+f.detail)
	}
	switch {
	case f.kind == unreachable && spent && !changed:
		rt.noReplica.Inc()
		rt.flight.Crash("all-replicas-unreachable", reqID, f.detail)
		return false, &routerError{http.StatusBadGateway, "all replicas unreachable: " + f.detail}
	case f.kind == torn && spent:
		rt.flight.Crash("replica-torn", reqID, target+": "+f.detail)
		return false, &routerError{http.StatusBadGateway, "replica response torn: " + f.detail}
	case f.kind == draining && spent:
		return false, nil
	}
	rt.rerouted.Inc()
	return true, nil
}

// noReplicaError is the answer when the ring is empty.
func (rt *Router) noReplicaError(reqID string) *routerError {
	rt.noReplica.Inc()
	rt.flight.Crash("no-replica", reqID, "no replica available")
	return &routerError{http.StatusServiceUnavailable, "no replica available"}
}

// account folds one job's final answer into the counters: an answer a
// replica gave is routed (a router-made error or a front-tier hit is
// not) and files a crash note when it is >= 500; a verdict-bearing job
// moves the campaign counters whoever answered it. It is also the one
// place the front tier is filled: with a replica's 200 to a cacheable
// job, and nothing else.
func (rt *Router) account(j *routed, replica, reqID string, code int, body []byte) {
	if replica != "" {
		rt.routed.Inc()
		rt.perMu.Lock()
		rt.perRouted[replica]++
		rt.perMu.Unlock()
		if code >= 500 {
			rt.flight.Crash("replica-5xx", reqID, fmt.Sprintf("%s: status %d: %s", replica, code, body))
		}
		if code == http.StatusOK && j.cacheable {
			rt.front.Put(j.key, body)
		}
	}
	if j.req.Verdict {
		rt.campaignJobs.Inc()
		if code == http.StatusOK {
			rt.campaignVerdicts.Inc()
			if bytes.Contains(body, failVerdictMarker) {
				rt.campaignFail.Inc()
			}
		}
	}
}

// frontHit answers j from the front tier if it holds j's key. A hit is
// a final answer, accounted as one that no replica gave (so no note
// names its request ID).
func (rt *Router) frontHit(j *routed) ([]byte, bool) {
	if !j.cacheable {
		return nil, false
	}
	body, ok := rt.front.Get(j.key)
	if ok {
		rt.account(j, "", "", http.StatusOK, body)
	}
	return body, ok
}

// exchange posts body to one replica endpoint under ctx with the request
// ID attached, so the replica's spans and flight-recorder entries share
// the router's ID, and reads the whole answer.
func (rt *Router) exchange(ctx context.Context, url string, body []byte, reqID string) (*http.Response, []byte, *fault) {
	resp, respBody, err := service.Post(ctx, rt.client, url, reqID, body)
	if err != nil {
		kind := unreachable
		if resp != nil {
			kind = torn
		}
		return nil, nil, &fault{kind, err.Error()}
	}
	return resp, respBody, nil
}

// handleBatch routes one campaign batch: a JSON array of job requests
// in, an aligned array of {code, body} items out, each body the bytes a
// /solve of that request returns. The whole batch occupies ONE router
// admission slot, so a million-scenario campaign contends with
// interactive /solve traffic as a handful of slots, not a slot per
// scenario. Per-item failures (including replica 429s) land in that
// item's code; the batch itself only fails for malformed bodies or
// router saturation.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqID := obs.RequestID(w, r)
	if r.Method != http.MethodPost {
		service.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	reqs, err := service.DecodeBatch(r.Body)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !rt.admit(w, reqID, "router saturated (batch)") {
		return
	}
	defer rt.release()
	service.WriteJSON(w, http.StatusOK, rt.routeBatch(r.Context(), reqs, reqID))
}

// subBatch is the jobs of one batch that one replica owns, and their
// round trip's request ID.
type subBatch struct {
	target string
	id     string
	jobs   []*routed
	again  []*routed // after send: the jobs to route once more
}

// routeBatch answers every request of one batch, each in its slot: an
// invalid item is a 400, an item the front tier holds is its stored
// answer, and forward answers the rest.
func (rt *Router) routeBatch(ctx context.Context, reqs []service.JobRequest, reqID string) []service.BatchItem {
	items := make([]service.BatchItem, len(reqs))
	var pending []*routed
	for i, req := range reqs {
		j, err := newRouted(req, i)
		if err != nil {
			items[i] = service.BatchItem{Code: http.StatusBadRequest, Body: service.ErrorBody(err.Error())}
			continue
		}
		if body, ok := rt.frontHit(j); ok {
			items[i] = service.BatchItem{Code: http.StatusOK, Body: body}
			continue
		}
		pending = append(pending, j)
	}
	rt.forward(ctx, pending, items, reqID)
	return items
}

// forward fills the slots of items that the pending jobs answer. The jobs
// stay a batch on the way down: they are grouped by ring owner and each
// replica gets ONE sub-batch (POST /batch, the wire contract the router
// itself serves), the sub-batches of a round travelling side by side —
// the calling goroutine carries the first itself, so a batch of one
// spawns none. Jobs a replica failed are grouped again on the re-sharded
// ring (failover) until every slot is filled.
//
// Sub-batch k travels as request ID "<batch ID>.k", so its job i is
// "<batch ID>.k-i" on the replica's spans and notes and on the router's;
// a job that never travels is "<batch ID>-<slot>". Every ID is unique
// and starts with the client's.
func (rt *Router) forward(ctx context.Context, pending []*routed, items []service.BatchItem, reqID string) {
	sent := 0
	for len(pending) > 0 {
		rg := rt.ring.Load()
		var subs []*subBatch
		owner := make(map[string]*subBatch)
		for _, j := range pending {
			target := rt.target(rg, j)
			if target == "" {
				id := reqID + "-" + strconv.Itoa(j.slot)
				rt.answer(items, j, id, rt.noReplicaError(id))
				continue
			}
			sb := owner[target]
			if sb == nil {
				sb = &subBatch{target: target, id: reqID + "." + strconv.Itoa(sent)}
				sent++
				owner[target] = sb
				subs = append(subs, sb)
			}
			sb.jobs = append(sb.jobs, j)
		}
		if len(subs) == 0 {
			return // the ring is empty: every job was answered above
		}
		var wg sync.WaitGroup
		for _, sb := range subs[1:] {
			wg.Add(1)
			go func(sb *subBatch) {
				defer wg.Done()
				rt.send(ctx, rg, sb, items)
			}(sb)
		}
		rt.send(ctx, rg, subs[0], items)
		wg.Wait()
		pending = pending[:0]
		for _, sb := range subs {
			pending = append(pending, sb.again...)
		}
	}
}

// answer fills j's slot with a router-made error.
func (rt *Router) answer(items []service.BatchItem, j *routed, id string, e *routerError) {
	items[j.slot] = service.BatchItem{Code: e.code, Body: service.ErrorBody(e.msg)}
	rt.account(j, "", id, e.code, items[j.slot].Body)
}

// send makes sb's round trip and settles each of its jobs: answered into
// its slot of items, or put on sb.again.
func (rt *Router) send(ctx context.Context, rg *ring, sb *subBatch, items []service.BatchItem) {
	answers, sbFault := rt.forwardBatch(ctx, sb)
	for i, j := range sb.jobs {
		id := sb.id + "-" + strconv.Itoa(i)
		f := sbFault
		if f == nil && answers[i].Code == http.StatusServiceUnavailable {
			f = replicaDraining
		}
		if f != nil {
			retry, final := rt.failover(ctx, rg, sb.target, id, j, f)
			if retry {
				sb.again = append(sb.again, j)
				continue
			}
			if final != nil {
				rt.answer(items, j, id, final)
				continue
			}
		}
		items[j.slot] = answers[i]
		rt.account(j, sb.target, id, answers[i].Code, answers[i].Body)
	}
}

// forwardBatch is one sub-batch round trip: the jobs out as a JSON
// array, one BatchItem per job back. Anything but a 200 carrying exactly
// len(jobs) items is a torn reply — the replica did not speak the
// protocol — and fails every job of the sub-batch.
func (rt *Router) forwardBatch(ctx context.Context, sb *subBatch) ([]service.BatchItem, *fault) {
	reqs := make([]service.JobRequest, len(sb.jobs))
	for i, j := range sb.jobs {
		reqs[i] = j.req
	}
	body, _ := json.Marshal(reqs) // a slice of flat structs: cannot fail
	start := time.Now()
	resp, respBody, f := rt.exchange(ctx, sb.target+"/batch", body, sb.id)
	if f != nil {
		return nil, f
	}
	rt.hBatchForward.With("").Record(time.Since(start).Seconds())
	if resp.StatusCode != http.StatusOK {
		return nil, &fault{torn, fmt.Sprintf("sub-batch status %d: %s", resp.StatusCode, respBody)}
	}
	answers, err := service.DecodeBatchReply(respBody, len(sb.jobs))
	if err != nil {
		return nil, &fault{torn, "sub-batch " + err.Error()}
	}
	return answers, nil
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if rt.gate.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	members := rt.Members()
	alive := 0
	rep := make(map[string]bool, len(members))
	for _, m := range members {
		rep[m.URL] = m.Alive
		if m.Alive {
			alive++
		}
	}
	if alive == 0 && code == http.StatusOK {
		status, code = "no-replicas", http.StatusServiceUnavailable
	}
	service.WriteJSON(w, code, map[string]any{
		"status":         status,
		"replicas":       rep,
		"replicas_alive": alive,
		"max_inflight":   rt.cfg.MaxInflight,
	})
}

// handleReplicas is the membership API: GET lists, POST applies
// {"add": [...], "remove": [...]} and re-shards the ring.
func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var chg struct {
			Add    []string `json:"add"`
			Remove []string `json:"remove"`
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&chg); err != nil {
			service.WriteError(w, http.StatusBadRequest, "bad membership body: "+err.Error())
			return
		}
		rt.SetMembers(chg.Add, chg.Remove)
	default:
		service.WriteError(w, http.StatusMethodNotAllowed, "GET or POST")
		return
	}
	members := rt.Members()
	out := make([]map[string]any, 0, len(members))
	for _, m := range members {
		out = append(out, map[string]any{"url": m.URL, "alive": m.Alive})
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{"replicas": out})
}

// scrapeTelemetry pulls one replica's /telemetry JSON snapshot. Failures
// report ok=false — the router's metrics must render even with a dead
// replica.
func (rt *Router) scrapeTelemetry(url string) (obs.Snapshot, bool) {
	var snap obs.Snapshot
	resp, err := rt.probe.Get(url + "/telemetry")
	if err != nil {
		return snap, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return snap, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, false
	}
	return snap, true
}

// handleMetrics renders the registry — router counters, the forward
// latency histogram, per-replica rows, and the fleet-merged quantiles —
// in the Prometheus text format.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.reg.WritePrometheus(w)
}

// handleTelemetry serves the fleet-merged snapshot: the router's own
// registry folded together with every alive replica's /telemetry
// document. Because histograms share one bucket layout, a client (or a
// router-of-routers) can merge these snapshots again without losing
// exactness.
func (rt *Router) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	fleet := rt.reg.Snapshot()
	for _, m := range rt.Members() {
		if !m.Alive {
			continue
		}
		if snap, ok := rt.scrapeTelemetry(m.URL); ok {
			obs.Merge(&fleet, snap)
		}
	}
	service.WriteJSON(w, http.StatusOK, fleet)
}
