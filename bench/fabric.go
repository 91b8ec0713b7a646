package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
	"resilience/internal/service"
	"resilience/internal/service/router"
)

// fabric is the serving topology both serving workloads load: one router
// over two replicas, all in this process on loopback listeners.
type fabric struct {
	replicas []*service.Server
	repSrv   []*httptest.Server
	router   *router.Router
	rtSrv    *httptest.Server
	client   *http.Client
}

const fabricReplicas = 2

// bootFabric starts the replicas and the router. cacheCap is each
// replica's result-cache bound in entries (0: the service default).
func bootFabric(cacheCap int) (*fabric, error) {
	f := &fabric{client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		Timeout:   2 * time.Minute,
	}}
	urls := make([]string, fabricReplicas)
	for i := range urls {
		// One solver worker per replica: two replicas fill this host's two
		// cores. The queue holds a whole campaign batch per client, so a
		// 429 means the fabric lost work, not that the benchmark overran
		// it. The span ring is raised so the traced run can read the
		// stage spans of a whole pass from /debug/trace.
		srv := service.New(service.Config{Workers: 1, QueueCap: 256, CacheCap: cacheCap, TraceRing: 1 << 16})
		ts := httptest.NewServer(srv)
		f.replicas = append(f.replicas, srv)
		f.repSrv = append(f.repSrv, ts)
		urls[i] = ts.URL
	}
	rt, err := router.New(router.Config{Replicas: urls, HealthEvery: -1})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.rtSrv = httptest.NewServer(rt)
	return f, nil
}

func (f *fabric) url() string { return f.rtSrv.URL }

func (f *fabric) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.rtSrv != nil {
		f.rtSrv.Close()
		_ = f.router.Shutdown(ctx) // the process is exiting; a slow drain changes nothing
	}
	for i, ts := range f.repSrv {
		ts.Close()
		_ = f.replicas[i].Shutdown(ctx)
	}
	f.client.CloseIdleConnections()
}

// post sends one JSON body and returns the status, the reply bytes and
// the X-Cache header.
func (f *fabric) post(url string, body []byte) (int, []byte, string, error) {
	resp, err := f.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get("X-Cache"), err
}

func (f *fabric) get(url string) ([]byte, error) {
	resp, err := f.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// fabricCounters is what the scrape endpoints say about the fabric,
// summed over the replicas.
type fabricCounters struct {
	hits, misses, evictions, coalesced float64
	rejected                           float64 // replica 429s + router 429s
	rerouted                           float64
	forwardP50s                        float64 // router forward round trip, seconds
}

// scrape reads every replica's and the router's /metrics.
func (f *fabric) scrape() (fabricCounters, error) {
	var c fabricCounters
	for _, ts := range f.repSrv {
		body, err := f.get(ts.URL + "/metrics")
		if err != nil {
			return c, err
		}
		m := parseMetrics(body)
		c.hits += m["resilienced_cache_hits_total"]
		c.misses += m["resilienced_cache_misses_total"]
		c.evictions += m["resilienced_cache_evictions_total"]
		c.coalesced += m["resilienced_cache_coalesced_total"]
		c.rejected += m["resilienced_jobs_rejected_total"]
	}
	body, err := f.get(f.url() + "/metrics")
	if err != nil {
		return c, err
	}
	m := parseMetrics(body)
	c.rejected += m["resilience_router_rejected_total"]
	c.rerouted = m["resilience_router_rerouted_total"]
	c.forwardP50s = m["resilience_router_forward_seconds_p50"]
	return c, nil
}

// parseMetrics reads the unlabeled lines of a Prometheus text page.
func parseMetrics(body []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsAny(name, "{#") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// stageMedians reads each replica's /debug/trace and returns the median
// duration in microseconds of every service stage span by name.
func (f *fabric) stageMedians() (map[string]float64, error) {
	durs := make(map[string][]float64)
	for _, ts := range f.repSrv {
		body, err := f.get(ts.URL + "/debug/trace")
		if err != nil {
			return nil, err
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Cat  string  `json:"cat"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("/debug/trace: %w", err)
		}
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" && e.Cat == "service" {
				durs[e.Name] = append(durs[e.Name], e.Dur)
			}
		}
	}
	out := make(map[string]float64, len(durs))
	for name, d := range durs {
		out[name] = median(d)
	}
	return out, nil
}

// --- fleet_cold ----------------------------------------------------------

// fleetCold is the serving fabric with every job a miss: chaos campaigns
// of distinct scenarios run through fleet.Run over HTTP, one campaign
// per pass, each on its own campaign seed.
type fleetCold struct {
	cfg   config
	fab   *fabric
	lines [][]string // verdict lines of each timed pass, for verify
	seeds []int64    // campaign seed of each timed pass
	input string
	sim   string
	// Parsed verdicts of the traced passes, for the layer estimates.
	verdicts    []*chaos.Verdict
	evaluations int
}

const (
	// fleetCacheCap is each replica's cache bound. It is below the
	// service default so the warm-up campaign fills both caches and every
	// timed put evicts, which is the steady state of a long campaign.
	fleetCacheCap = 1024
	fleetBatch    = 64
)

func (w *fleetCold) passN() int {
	if w.cfg.quick {
		return 128
	}
	return 4096
}

// campaign is pass k's campaign; the warm-up is k = -1. Campaign seeds
// differ per pass, so no timed scenario was ever seen by a cache.
func (w *fleetCold) campaign(k, n int) fleet.Options {
	return fleet.Options{
		Campaign: chaos.Options{
			N: n, Seed: w.cfg.seed*1_000_003 + int64(k) + 1,
			MaxFaults: 3, Schemes: paperSchemes,
		},
		Batch:   fleetBatch,
		Workers: clients(),
	}
}

func (w *fleetCold) setup() error {
	var err error
	if w.fab, err = bootFabric(fleetCacheCap); err != nil {
		return err
	}
	warm := 2*fleetCacheCap + 512 // overflows both replicas' caches
	if w.cfg.quick {
		warm = 64
	}
	rep, err := fleet.Run(context.Background(), w.campaign(-1, warm), fleet.NewClient(w.fab.url(), ""))
	if err != nil {
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("warm-up campaign: %d invariant violations", rep.Failed)
	}
	return nil
}

// timedEvaluator wraps the HTTP evaluator to time each Evaluate call —
// one POST /batch — which is this workload's latency sample.
type timedEvaluator struct {
	inner fleet.Evaluator
	tr    *tracer
	pass  int

	mu   sync.Mutex
	lat  []float64
	next int64
}

func (e *timedEvaluator) Evaluate(ctx context.Context, scen []*chaos.Scenario) ([]string, error) {
	e.mu.Lock()
	op := int64(e.pass)<<32 | e.next
	e.next++
	e.mu.Unlock()
	root := e.tr.begin("op batch", op, -1, int(op&0xff))
	call := e.tr.begin("fleet.Client.Evaluate", op, root, int(op&0xff))
	t := time.Now()
	out, err := e.inner.Evaluate(ctx, scen)
	d := time.Since(t)
	e.tr.end(call)
	e.tr.end(root)
	if err == nil {
		e.mu.Lock()
		e.lat = append(e.lat, ms(d))
		e.mu.Unlock()
	}
	return out, err
}

func (w *fleetCold) pass(k int, tr *tracer) passResult {
	opts := w.campaign(k, w.passN())
	ev := &timedEvaluator{inner: fleet.NewClient(w.fab.url(), ""), tr: tr, pass: k}
	run := tr.begin("fleet.Run", int64(k)<<32, -1, 0)
	rep, err := fleet.Run(context.Background(), opts, ev)
	tr.end(run)
	res := passResult{ops: opts.Campaign.N}
	if err != nil {
		res.failed = res.ops
		return res
	}
	res.failed = rep.Failed
	res.lat = ev.lat
	w.lines = append(w.lines, rep.Lines)
	w.seeds = append(w.seeds, opts.Campaign.Seed)
	if k == 0 {
		in, sim := newDigest(), newDigest()
		for _, v := range rep.Verdicts {
			in.str(v.Args)
			sim.strs(strconv.Itoa(v.Iters), v.Time, v.Energy, v.SolutionHash, v.HistoryHash)
		}
		w.input, w.sim = in.hex(), sim.hex()
	}
	if tr != nil {
		w.verdicts = append(w.verdicts, rep.Verdicts...)
		w.evaluations += rep.Evaluations
	}
	return res
}

// verify re-evaluates every 64th scenario of every timed pass on the
// in-process oracle and compares the verdict lines byte for byte.
func (w *fleetCold) verify() int {
	oracle := fleet.NewOracle("", clients())
	failed := 0
	for p, lines := range w.lines {
		opts := chaos.Options{N: len(lines), Seed: w.seeds[p], MaxFaults: 3, Schemes: paperSchemes}
		var scen []*chaos.Scenario
		var want []string
		for i := 0; i < len(lines); i += 64 {
			scen = append(scen, chaos.ScenarioAt(opts, i))
			want = append(want, lines[i])
		}
		got, err := oracle.Evaluate(context.Background(), scen)
		if err != nil {
			failed += len(scen)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				failed++
			}
		}
	}
	return failed
}

func (w *fleetCold) digests() (string, string) { return w.input, w.sim }

func (w *fleetCold) close() {
	if w.fab != nil {
		w.fab.close()
	}
}

// --- serve_hot -----------------------------------------------------------

// serveHot is the same fabric with every request a hit: a fixed set of
// scenario jobs, each solved once during set-up, then requested through
// the router with zipf popularity.
type serveHot struct {
	cfg    config
	fab    *fabric
	bodies [][]byte // request JSON per unique scenario
	oracle [][]byte // expected reply per unique scenario, from service.RunJob
	stream []int    // one pass's index sequence into the uniques
	input  string
	sim    string
}

const hotUniques = 1024

func (w *serveHot) passN() int {
	if w.cfg.quick {
		return 400
	}
	return 20000
}

func (w *serveHot) setup() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	uniques := hotUniques
	if w.cfg.quick {
		uniques = 32
	}
	scen, err := genScenarios(rng, uniques)
	if err != nil {
		return err
	}
	w.stream = genZipf(rng, w.passN(), uniques)
	in := newDigest()
	in.strs(scen...)
	in.ints(w.stream)
	w.input = in.hex()

	if w.fab, err = bootFabric(0); err != nil {
		return err
	}
	sim := newDigest()
	for _, s := range scen {
		req := service.JobRequest{Scenario: s}
		res, _, err := service.RunJob(context.Background(), req)
		if err != nil {
			return fmt.Errorf("oracle job %q: %w", s, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		// The first request of each key is its one miss: it fills the
		// owning replica's cache.
		code, got, _, err := w.fab.post(w.fab.url()+"/solve", body)
		if err != nil {
			return err
		}
		if code != http.StatusOK || !bytes.Equal(got, want) {
			return fmt.Errorf("pre-fill of %q: status %d, reply differs from the oracle: %s", s, code, got)
		}
		w.bodies = append(w.bodies, body)
		w.oracle = append(w.oracle, want)
		sim.strs(strconv.Itoa(res.Iters), res.Time, res.Energy, res.SolutionHash, res.HistoryHash)
	}
	w.sim = sim.hex()

	if p := w.run(-1, len(w.stream)/4, nil); p.failed > 0 {
		return fmt.Errorf("warm-up pass: %d of %d requests failed", p.failed, p.ops)
	}
	return nil
}

func (w *serveHot) pass(k int, tr *tracer) passResult { return w.run(k, len(w.stream), tr) }

// run sends the first n requests of the stream, split round-robin over
// the clients, and compares every reply to its oracle.
func (w *serveHot) run(k, n int, tr *tracer) passResult {
	c := clients()
	type out struct {
		failed int
		lat    []float64
	}
	outs := make([]out, c)
	var wg sync.WaitGroup
	for j := 0; j < c; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			o := &outs[j]
			o.lat = make([]float64, 0, n/c+1)
			for i := j; i < n; i += c {
				u := w.stream[i]
				op := int64(k)<<32 | int64(i)
				root := tr.begin("op request", op, -1, j)
				call := tr.begin("POST /solve", op, root, j)
				t := time.Now()
				code, got, _, err := w.fab.post(w.fab.url()+"/solve", w.bodies[u])
				d := time.Since(t)
				tr.end(call)
				if err != nil || code != http.StatusOK || !bytes.Equal(got, w.oracle[u]) {
					o.failed++
				} else {
					o.lat = append(o.lat, ms(d))
				}
				tr.end(root)
			}
		}(j)
	}
	wg.Wait()
	res := passResult{ops: n}
	for _, o := range outs {
		res.failed += o.failed
		res.lat = append(res.lat, o.lat...)
	}
	return res
}

func (w *serveHot) verify() int { return 0 }

func (w *serveHot) digests() (string, string) { return w.input, w.sim }

func (w *serveHot) close() {
	if w.fab != nil {
		w.fab.close()
	}
}
