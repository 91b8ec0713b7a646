// Command resilience-load replays a seeded job stream against a running
// resilienced (or a resilience-router fronting a fleet) and proves the
// service's determinism contract: every response body must be
// byte-identical to running the same job offline through
// service.RunJob — whatever the daemon's worker count, queue order,
// concurrency, or cache state.
//
// An optional burst phase first floods the queue with sleep jobs to
// exercise explicit backpressure: it demands at least one 429, honors
// the Retry-After hint, and requires every burst job to complete on
// retry. The scenario stream itself is drawn from the chaos generator,
// so the same -seed/-n replays the same mixed workload anywhere.
//
// An optional duplicate-heavy phase (-dup-jobs) then replays a
// zipf-skewed stream over a small set of unique jobs: every response is
// still byte-compared against the local oracle, and the target's cache
// counters must show a hit rate of at least -min-hit-rate across the
// phase — the end-to-end proof that the content-addressed cache both
// fires and never changes a single byte.
//
//	resilience-load -addr http://127.0.0.1:8912 -n 24 -c 8 -seed 1 -burst 8
//	resilience-load -addr http://127.0.0.1:8910 -n 0 -dup-jobs 20000 -dup-unique 96 -min-hit-rate 0.5
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilience/internal/chaos"
	"resilience/internal/service"
)

// options carries every run parameter; tests fill it directly.
type options struct {
	addr      string
	n         int
	c         int
	seed      int64
	maxFaults int
	burst     int
	sleepMs   int
	timeoutMs int

	// Duplicate-heavy phase: dupJobs requests drawn zipf-skewed from
	// dupUnique distinct jobs; the target's cache hit rate over the
	// phase must reach minHitRate.
	dupJobs    int
	dupUnique  int
	dupZipf    float64
	minHitRate float64
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "http://127.0.0.1:8912", "resilienced or resilience-router base URL")
	flag.IntVar(&o.n, "n", 24, "number of scenario jobs in the oracle stream")
	flag.IntVar(&o.c, "c", 4, "concurrent submitters")
	flag.Int64Var(&o.seed, "seed", 1, "stream seed (scenario i derives seed+i*stride)")
	flag.IntVar(&o.maxFaults, "max-faults", 3, "faults per scenario drawn from 0..k")
	flag.IntVar(&o.burst, "burst", 0, "sleep jobs to flood the queue with first (0: skip the backpressure phase)")
	flag.IntVar(&o.sleepMs, "sleep-ms", 300, "duration of each burst sleep job")
	flag.IntVar(&o.timeoutMs, "timeout-ms", 0, "per-job timeout_ms sent with each request (0: server default)")
	flag.IntVar(&o.dupJobs, "dup-jobs", 0, "requests in the duplicate-heavy phase (0: skip)")
	flag.IntVar(&o.dupUnique, "dup-unique", 96, "distinct jobs the duplicate stream draws from")
	flag.Float64Var(&o.dupZipf, "dup-zipf", 1.2, "zipf skew of the duplicate stream (>1; higher = hotter head)")
	flag.Float64Var(&o.minHitRate, "min-hit-rate", 0.5, "required cache hit rate across the duplicate phase")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	if o.c < 1 {
		o.c = 1
	}
	client := service.NewClient(o.addr)

	if o.burst > 0 {
		rejected, err := runBurst(client, o.burst, o.sleepMs, out)
		if err != nil {
			return err
		}
		if rejected == 0 {
			return fmt.Errorf("resilience-load: burst of %d sleep jobs saw no 429 — queue never filled; shrink -workers/-queue on the daemon or raise -burst", o.burst)
		}
	}

	if o.n > 0 {
		if err := runStream(client, o, out); err != nil {
			return err
		}
	}

	if o.dupJobs > 0 {
		if err := runDupPhase(client, o, out); err != nil {
			return err
		}
	}
	return nil
}

// probe is one request of a phase and the bytes its answer must equal.
type probe struct {
	name  string // how failure logs name the request
	reqID string
	req   service.JobRequest
	want  []byte
}

// submit is the submit-and-compare loop both oracle phases share: c
// workers post requests 0..n-1, each named by at(i), and byte-compare
// every answer with its oracle bytes. It returns how many answers were
// retried, differed from the oracle, and failed.
func submit(client *service.Client, c, n int, out io.Writer, at func(i int) (probe, error)) (retries, mismatches, failures int64) {
	var r, m, f atomic.Int64
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				p, err := at(i)
				if err != nil {
					f.Add(1)
					fmt.Fprintf(out, "%s: oracle failed: %v\n", p.name, err)
					continue
				}
				code, got, retried, ec, err := post(client, p.req, p.reqID)
				r.Add(int64(retried))
				if err != nil || code != http.StatusOK {
					f.Add(1)
					fmt.Fprintf(out, "%s: status %d err %v %s: %s\n", p.name, code, err, ec, got)
					continue
				}
				if !bytes.Equal(got, p.want) {
					m.Add(1)
					fmt.Fprintf(out, "%s: response differs from oracle (%s)\n  scenario: %s\n  got:  %s\n  want: %s\n",
						p.name, ec, p.req.Scenario, got, p.want)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return r.Load(), m.Load(), f.Load()
}

// runStream replays the seeded scenario stream, comparing every
// response byte-for-byte against the local oracle.
func runStream(client *service.Client, o options, out io.Writer) error {
	start := time.Now()
	retries, mismatches, failures := submit(client, o.c, o.n, out, func(i int) (probe, error) {
		// chaos.ScenarioAt is the campaign-wide generation path: scenario
		// i here equals scenario i of `chaos -seed S` and of a
		// chaos-fleet campaign with the same seed.
		s := chaos.ScenarioAt(chaos.Options{Seed: o.seed, MaxFaults: o.maxFaults}, i)
		// Deterministic request IDs: the same -seed names the same jobs,
		// so a failure's ID can be found again on replay.
		p := probe{name: fmt.Sprintf("job %d", i), reqID: fmt.Sprintf("load-s%d-job-%d", o.seed, i),
			req: service.JobRequest{Scenario: s.Args(), TimeoutMs: o.timeoutMs}}
		res, _, err := service.RunJob(context.Background(), p.req)
		if err == nil {
			p.want, err = json.Marshal(res)
		}
		return p, err
	})

	fmt.Fprintf(out, "resilience-load: %d scenario jobs, %d submitters, %d retries after 429, %d mismatches, %d failures, %.2fs\n",
		o.n, o.c, retries, mismatches, failures, time.Since(start).Seconds())
	if mismatches > 0 || failures > 0 {
		return fmt.Errorf("resilience-load: %d mismatches, %d failures", mismatches, failures)
	}
	return nil
}

// runDupPhase replays a zipf-skewed duplicate-heavy stream over a small
// set of unique jobs. Each unique job's oracle body is computed locally
// exactly once; every one of the dupJobs responses must match it
// byte-for-byte, and the target's cache counters (scraped from /metrics
// before and after) must show a hit rate of at least minHitRate.
func runDupPhase(client *service.Client, o options, out io.Writer) error {
	if o.dupUnique < 1 {
		o.dupUnique = 1
	}
	start := time.Now()

	// Unique job set with locally-computed oracle bodies. Seeds continue
	// past the stream phase's range so the two phases stay independent.
	uniq := make([]service.JobRequest, o.dupUnique)
	oracle := make([][]byte, o.dupUnique)
	for i := range uniq {
		s := chaos.ScenarioAt(chaos.Options{Seed: o.seed, MaxFaults: o.maxFaults}, o.n+i)
		uniq[i] = service.JobRequest{Scenario: s.Args(), TimeoutMs: o.timeoutMs}
		res, _, err := service.RunJob(context.Background(), uniq[i])
		if err != nil {
			return fmt.Errorf("resilience-load: dup oracle %d: %w", i, err)
		}
		oracle[i], err = json.Marshal(res)
		if err != nil {
			return err
		}
	}

	hits0, misses0, err := scrapeCacheCounters(client)
	if err != nil {
		return fmt.Errorf("resilience-load: pre-phase metrics scrape: %w", err)
	}

	// The whole index stream is drawn up front from one generator, so
	// the workload is deterministic regardless of submitter scheduling.
	zr := rand.New(rand.NewSource(o.seed ^ 0x5ca1ab1e))
	zipf := rand.NewZipf(zr, o.dupZipf, 1, uint64(o.dupUnique-1))
	if zipf == nil {
		return fmt.Errorf("resilience-load: bad zipf skew %v (need > 1)", o.dupZipf)
	}
	stream := make([]int, o.dupJobs)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}

	retries, mismatches, failures := submit(client, o.c, o.dupJobs, out, func(pos int) (probe, error) {
		idx := stream[pos]
		return probe{name: fmt.Sprintf("dup job (uniq %d)", idx), reqID: fmt.Sprintf("load-s%d-dup-%d", o.seed, pos),
			req: uniq[idx], want: oracle[idx]}, nil
	})

	hits1, misses1, err := scrapeCacheCounters(client)
	if err != nil {
		return fmt.Errorf("resilience-load: post-phase metrics scrape: %w", err)
	}
	dh, dm := hits1-hits0, misses1-misses0
	lookups := dh + dm
	rate := 0.0
	if lookups > 0 {
		rate = dh / lookups
	}
	fmt.Fprintf(out, "resilience-load: dup phase %d jobs over %d uniques (zipf %.2f), cache hit rate %.3f (floor %.2f), %d retries after 429, %d mismatches, %d failures, %.2fs\n",
		o.dupJobs, o.dupUnique, o.dupZipf, rate, o.minHitRate, retries, mismatches, failures, time.Since(start).Seconds())
	if mismatches > 0 || failures > 0 {
		return fmt.Errorf("resilience-load: dup phase: %d mismatches, %d failures", mismatches, failures)
	}
	if lookups <= 0 {
		return fmt.Errorf("resilience-load: dup phase: cache counters never moved (%v hits, %v misses) — is the cache disabled?", dh, dm)
	}
	if rate < o.minHitRate {
		return fmt.Errorf("resilience-load: dup phase: cache hit rate %.3f below floor %.2f", rate, o.minHitRate)
	}
	return nil
}

// scrapeCacheCounters pulls the target's /metrics and sums the
// unlabeled counters whose names end in cache_hits_total and
// cache_misses_total — matching both a bare resilienced and a
// resilience-router's fleet aggregate.
func scrapeCacheCounters(client *service.Client) (hits, misses float64, err error) {
	body, err := client.Get("/metrics")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, rest, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasSuffix(name, "cache_hits_total"):
			hits += v
		case strings.HasSuffix(name, "cache_misses_total"):
			misses += v
		}
	}
	return hits, misses, nil
}

// runBurst floods the queue with sleep jobs and reports how many were
// rejected with 429 on first contact; each one must still complete OK
// after honoring Retry-After.
func runBurst(client *service.Client, burst, sleepMs int, out io.Writer) (int, error) {
	var rejected, failed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := service.JobRequest{SleepMs: sleepMs}
			code, body, retries, ec, err := post(client, req, fmt.Sprintf("load-burst-%d", i))
			if retries > 0 {
				rejected.Add(1)
			}
			if err != nil || code != http.StatusOK {
				failed.Add(1)
				fmt.Fprintf(out, "burst job: status %d err %v %s: %s\n", code, err, ec, body)
			}
		}(i)
	}
	wg.Wait()
	fmt.Fprintf(out, "resilience-load: burst %d sleep jobs, %d hit queue-full and retried to completion\n",
		burst, rejected.Load())
	if f := failed.Load(); f > 0 {
		return int(rejected.Load()), fmt.Errorf("resilience-load: %d burst jobs failed", f)
	}
	return int(rejected.Load()), nil
}

// echo carries the telemetry headers the server answered with: the
// echoed X-Request-Id (which names the request in server-side spans and
// flight-recorder dumps) and the X-Cache marker. Failure and mismatch
// logs quote both, so a bad response can be chased through the fleet.
type echo struct {
	reqID string
	cache string
}

// String renders the echo for failure logs.
func (e echo) String() string {
	cache := e.cache
	if cache == "" {
		cache = "-"
	}
	reqID := e.reqID
	if reqID == "" {
		reqID = "-"
	}
	return "req_id=" + reqID + " x_cache=" + cache
}

// post submits one job to /solve under the given X-Request-Id through
// the client's retry rule. Returns the final status, body, how many
// answers were retried, and the echoed telemetry headers; an echo that
// names another request is an error.
func post(client *service.Client, req service.JobRequest, reqID string) (int, []byte, int, echo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, 0, echo{}, err
	}
	resp, got, retries, err := client.Post(context.Background(), "/solve", reqID, body)
	if resp == nil {
		return 0, nil, retries, echo{}, err
	}
	ec := echo{reqID: resp.Header.Get("X-Request-Id"), cache: resp.Header.Get("X-Cache")}
	if err == nil && ec.reqID != "" && ec.reqID != reqID {
		err = fmt.Errorf("resilience-load: sent X-Request-Id %s but server echoed %s", reqID, ec.reqID)
	}
	return resp.StatusCode, got, retries, ec, err
}
