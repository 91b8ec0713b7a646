package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"resilience/internal/obs"
	"resilience/internal/service/cache"
)

// Config sizes the server. The zero value is usable: GOMAXPROCS
// workers, a queue twice that deep, a 120 s job timeout, a
// DefaultCacheCap-entry result cache with single-flight dedup.
type Config struct {
	// Workers is the solver pool size (<=0: GOMAXPROCS).
	Workers int
	// QueueCap bounds pending (admitted, not yet running) jobs
	// (<=0: 2*Workers). Beyond it the server answers 429.
	QueueCap int
	// JobTimeout caps each job's wall-clock time (<=0: 120 s). Requests
	// may tighten it per job via timeout_ms, never loosen it.
	JobTimeout time.Duration
	// RetryAfter is the hint sent with 429 responses (<=0: 1 s).
	RetryAfter time.Duration
	// CacheCap bounds the content-addressed result cache in entries
	// (0: DefaultCacheCap; negative: cache and single-flight dedup
	// disabled).
	CacheCap int
	// TraceRing bounds the wall-clock span ring (<=0: 4096 spans).
	TraceRing int
}

// cacheShards is the result cache's count of independent lock domains.
const cacheShards = 16

// DefaultCacheCap is the one bound, in entries, of both result-cache
// tiers: a replica's cache when Config.CacheCap is 0, and the router's
// front tier.
const DefaultCacheCap = 4096

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 2 * c.Workers
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheCap == 0 {
		c.CacheCap = DefaultCacheCap
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 4096
	}
	return c
}

// Server is the HTTP solve service: a content-addressed result cache
// and single-flight dedup in front of a bounded queue and worker pool,
// explicit backpressure, per-job deadlines, and a graceful drain. It
// implements http.Handler.
//
// Cache hits and coalesced joins are answered ahead of queue admission
// and never consume a queue slot — backpressure applies only to
// genuinely new work. The determinism contract makes this invisible to
// clients: a cached body is byte-identical to a fresh recomputation.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue *queue

	// results caches marshaled 200-OK response bodies by canonical job
	// key; flights coalesces concurrent identical misses. Both nil when
	// the cache is disabled (CacheCap < 0).
	results *cache.Cache[[]byte]
	flights *cache.Group[flightOut]
	// afterMiss, when set, runs between a cache miss and the flight;
	// tests use it to finish a duplicate's flight inside that window.
	afterMiss func()

	// gate admits jobs onto the queue and drains them: every successful
	// push happens-before the drain, so the queue never sees a late send.
	gate    Gate
	workers sync.WaitGroup

	// The telemetry plane: counters and histograms live in reg (served
	// on /metrics and, as a mergeable JSON snapshot, on /telemetry);
	// tracer retains the recent wall-clock request spans; flight is the
	// process's crash flight recorder, obs.DefaultFlight (disk dumping is
	// the recorder's own SetDump, wired from resilienced's -flight-dir).
	reg    *obs.Registry
	tracer *obs.Tracer
	flight *obs.FlightRecorder

	cAdmitted  *obs.Counter
	cRejected  *obs.Counter
	cCompleted *obs.Counter
	cFailed    *obs.Counter
	hVirtual   *obs.HistogramVec // modeled time-to-solution per scheme
	hWall      *obs.HistogramVec // worker wall-clock per scheme/kind
	hEnergy    *obs.HistogramVec // modeled E_res joules per scheme

	// ranks folds every completed scenario run's per-rank counters
	// (bytes, messages, collectives, flops) into one aggregate, served
	// as the rank_* lines of /metrics.
	mu      sync.Mutex // guards ranks and lastRec
	ranks   obs.Metrics
	lastRec *obs.Recorder // most recent completed scenario run's recorder
}

// flightOut is one executed job rendered as an HTTP outcome: the status
// code, the exact response body bytes, and whether a Retry-After hint
// applies. Fanning these bytes out to coalesced joiners preserves the
// byte-identity contract for every waiter, not just the leader.
type flightOut struct {
	code       int
	body       []byte
	retryAfter bool
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		queue:  newQueue(cfg.QueueCap),
		tracer: obs.NewTracer(cfg.TraceRing),
		flight: obs.DefaultFlight(),
	}
	if cfg.CacheCap > 0 {
		s.results = cache.New[[]byte](cfg.CacheCap, cacheShards)
		s.flights = cache.NewGroup[flightOut]()
	}
	s.initMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.mux.Handle("/debug/flightrecorder", s.flight)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// initMetrics builds the registry. Registration order is the exposition
// order, kept compatible with the hand-rolled /metrics this replaces:
// the legacy metric names (resilienced_jobs_admitted_total,
// resilienced_queue_depth, resilienced_solve_virtual_seconds_total{scheme=...},
// ...) all survive — the histogram families merely grow _count, _bucket,
// and quantile lines alongside them.
func (s *Server) initMetrics() {
	r := obs.NewRegistry("resilienced")
	s.reg = r
	s.cAdmitted = r.Counter("jobs_admitted_total")
	s.cRejected = r.Counter("jobs_rejected_total")
	s.cCompleted = r.Counter("jobs_completed_total")
	s.cFailed = r.Counter("jobs_failed_total")
	r.GaugeFunc("queue_depth", func() float64 { return float64(s.queue.depth()) })
	r.GaugeFunc("queue_capacity", func() float64 { return float64(s.cfg.QueueCap) })
	r.GaugeFunc("workers", func() float64 { return float64(s.cfg.Workers) })
	if s.results != nil {
		r.GaugeFunc("cache_hits_total", func() float64 { h, _, _ := s.results.Stats(); return float64(h) })
		r.GaugeFunc("cache_misses_total", func() float64 { _, m, _ := s.results.Stats(); return float64(m) })
		r.GaugeFunc("cache_evictions_total", func() float64 { _, _, e := s.results.Stats(); return float64(e) })
		r.GaugeFunc("cache_coalesced_total", func() float64 { _, c := s.flights.Stats(); return float64(c) })
		r.GaugeFunc("cache_entries", func() float64 { return float64(s.results.Len()) })
		r.GaugeFunc("cache_capacity", func() float64 { return float64(s.results.Capacity()) })
		r.GaugeFunc("cache_hit_ratio", func() float64 {
			h, m, _ := s.results.Stats()
			if h+m == 0 {
				return 0
			}
			return float64(h) / float64(h+m)
		})
	}
	s.hVirtual = r.HistogramVec("solve_virtual_seconds", "scheme")
	s.hWall = r.HistogramVec("solve_wall_seconds", "scheme")
	s.hEnergy = r.HistogramVec("solve_energy_joules", "scheme")
	r.Collector(func(e *obs.Expo) {
		s.mu.Lock()
		rk := s.ranks
		s.mu.Unlock()
		e.Int("rank_msgs_sent_total", rk.MsgsSent)
		e.Int("rank_bytes_sent_total", rk.BytesSent)
		e.Int("rank_collectives_total", rk.Collectives)
		e.Int("rank_flops_total", rk.Flops)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops admission, waits for every admitted job to be
// answered, then stops the workers. ctx bounds the drain: when it ends
// first, Shutdown returns its error but still closes the queue, so the
// workers exit once their jobs end, and a later Shutdown waits for that.
// A draining server still answers cache hits (they touch no queue or
// worker), which lets a replica behind a router serve out its hot set
// while the router re-shards around it.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.gate.Drain(ctx)
	s.queue.close()
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.workers.Wait()
	return nil
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue.ch {
		s.tracer.Record("queue", j.reqID, j.enqueued, time.Since(j.enqueued))
		sp := s.tracer.Start("solve", j.reqID)
		res, rec, err := RunJob(j.ctx, j.req)
		wall := sp.End()
		j.cancel()
		s.record(j.req, res, rec, err, wall, j.reqID)
		j.done <- jobOutcome{result: res, rec: rec, err: err}
		s.gate.Leave()
	}
}

// record folds one finished job into the service counters, histograms,
// and flight-recorder timeline.
func (s *Server) record(req JobRequest, res *JobResult, rec *obs.Recorder, err error, wall time.Duration, reqID string) {
	key := req.Kind()
	if res != nil && res.Scheme != "" {
		key = res.Scheme
	}
	if err != nil {
		s.cFailed.Inc()
		s.flight.Note("job-failed", reqID, key+": "+err.Error())
		return
	}
	s.cCompleted.Inc()
	s.flight.Note("job-done", reqID, key)
	s.hWall.With(key).Record(wall.Seconds())
	if res.Time != "" {
		if v, perr := strconv.ParseFloat(res.Time, 64); perr == nil {
			s.hVirtual.With(key).Record(v)
		}
	}
	if res.Energy != "" {
		if v, perr := strconv.ParseFloat(res.Energy, 64); perr == nil {
			s.hEnergy.With(key).Record(v)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec != nil {
		s.ranks = obs.Total([]obs.Metrics{s.ranks, obs.Total(rec.Metrics())})
		s.lastRec = rec
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	reqID := obs.RequestID(w, r)
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	out, xcache := s.solve(r.Context(), req, reqID)
	if xcache != "" {
		w.Header().Set("X-Cache", xcache)
	}
	if out.retryAfter {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(s.cfg.RetryAfter)))
	}
	writeRaw(w, out.code, out.body)
}

// BatchItem is one /batch element's outcome, on the replica and on the
// router alike. Body is the exact bytes /solve answers for that request:
// embedding them as a RawMessage is what lets the fleet's determinism
// contract ride through a batch.
type BatchItem struct {
	Code int             `json:"code"`
	Body json.RawMessage `json:"body"`
}

// MaxBatchItems caps one /batch request. A chaos fleet shards campaigns
// into batches far below this; the cap exists so a single request can
// never stand for an unbounded amount of work.
const MaxBatchItems = 1024

// DecodeBatch reads and bounds a /batch request body: a JSON array of
// 1..MaxBatchItems job requests. The items themselves are not validated
// here — an invalid item fails alone, in its slot.
func DecodeBatch(body io.Reader) ([]JobRequest, error) {
	var reqs []JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reqs); err != nil {
		return nil, fmt.Errorf("bad batch body: %w", err)
	}
	if len(reqs) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(reqs) > MaxBatchItems {
		return nil, fmt.Errorf("batch of %d exceeds the %d-item cap", len(reqs), MaxBatchItems)
	}
	return reqs, nil
}

// handleBatch answers a JSON array of job requests with an aligned array
// of BatchItems, each item solved exactly as /solve would solve it (item
// i runs under request ID "<batch ID>-i"). Per-item failures — invalid
// requests, 429s, deadlines — land in that item's code; the batch itself
// fails only for a malformed body. Once the request's context ends no
// further item is started: every slot not yet claimed answers 503
// "request abandoned", the router's wording for the same event.
//
// At most Workers+1 items are in flight at once: enough to keep every
// worker busy with the next job already queued, and never more than the
// default queue (2*Workers) holds, so a batch on an idle replica cannot
// 429 itself and leaves room for interactive /solve traffic beside it.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqID := obs.RequestID(w, r)
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	reqs, err := DecodeBatch(r.Body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	items := make([]BatchItem, len(reqs))
	var next atomic.Int64
	pull := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(reqs) {
				return
			}
			if err := r.Context().Err(); err != nil {
				items[i] = BatchItem{Code: http.StatusServiceUnavailable, Body: ErrorBody("request abandoned: " + err.Error())}
				continue
			}
			out, _ := s.solve(r.Context(), reqs[i], reqID+"-"+strconv.Itoa(i))
			items[i] = BatchItem{Code: out.code, Body: out.body}
		}
	}
	// The handler goroutine is one of the pullers, so a one-item batch
	// spawns none.
	var wg sync.WaitGroup
	for k := 1; k < min(s.cfg.Workers+1, len(reqs)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pull()
		}()
	}
	pull()
	wg.Wait()
	WriteJSON(w, http.StatusOK, items)
}

// solve answers one job request as exact response bytes: validation, the
// result cache, single-flight, the admission queue and the worker pool.
// It is the one path behind /solve and every /batch item. xcache is the
// X-Cache marker ("hit", "miss", "coalesced"; empty when the job never
// reached the cache).
//
// A cacheable job is answered ahead of queue admission: a resident
// result is served directly, a miss runs at most once per key via
// single-flight with every concurrent duplicate joining the leader's
// flight. Only the leader touches the admission queue, so backpressure
// (and 429s) applies per unique job, not per request. A duplicate can
// miss the lookup and reach the single-flight after the first flight has
// stored its result and ended, so the leader looks in the cache once
// more before it runs the job.
//
// The leader executes under a context detached from ctx: its result is
// shared by coalesced joiners, so one client's disconnect must not
// cancel everyone's job. 200-OK bodies are cached; errors and rejections
// fan out to the current waiters but are never stored.
//
// A 5xx outcome triggers a flight-recorder crash dump (throttled, and
// only when a dump dir is configured) naming the request ID.
func (s *Server) solve(ctx context.Context, req JobRequest, reqID string) (out flightOut, xcache string) {
	key, cacheable, err := CanonicalKey(req)
	if err != nil {
		return flightOut{code: http.StatusBadRequest, body: ErrorBody(err.Error())}, ""
	}
	if !cacheable || s.results == nil {
		out = s.executeQueued(ctx, req, reqID)
	} else {
		look := s.tracer.Start("cache-lookup", reqID)
		body, ok := s.results.Get(key)
		look.End()
		if ok {
			return flightOut{code: http.StatusOK, body: body}, "hit"
		}
		if s.afterMiss != nil {
			s.afterMiss()
		}
		var shared, resident bool
		out, _, shared = s.flights.Do(key, func() (flightOut, error) {
			if body, ok := s.results.Peek(key); ok {
				resident = true
				return flightOut{code: http.StatusOK, body: body}, nil
			}
			fo := s.executeQueued(context.Background(), req, reqID)
			if fo.code == http.StatusOK {
				s.results.Put(key, fo.body)
			}
			return fo, nil
		})
		switch {
		case shared:
			xcache = "coalesced"
		case resident:
			xcache = "hit"
		default:
			xcache = "miss"
		}
	}
	if out.code >= 500 {
		s.flight.Crash("http-5xx", reqID, fmt.Sprintf("status %d: %s", out.code, out.body))
	}
	return out, xcache
}

// executeQueued runs req through admission, the bounded queue, and the
// worker pool, rendering the outcome as exact response bytes. It is the
// single execution path for direct, cached-miss, and coalesced-leader
// requests.
func (s *Server) executeQueued(parent context.Context, req JobRequest, reqID string) flightOut {
	timeout := s.cfg.JobTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	jctx, cancel := context.WithTimeout(parent, timeout)
	j := &job{req: req, reqID: reqID, ctx: jctx, cancel: cancel, done: make(chan jobOutcome, 1)}

	admit := s.tracer.Start("admission-wait", reqID)
	admitted, draining := s.gate.Enter(func() bool {
		j.enqueued = time.Now()
		return s.queue.tryPush(j)
	})
	admit.End()

	if draining {
		cancel()
		return flightOut{code: http.StatusServiceUnavailable, body: ErrorBody("draining")}
	}
	if !admitted {
		cancel()
		s.cRejected.Inc()
		s.flight.Note("job-rejected", reqID, "queue full")
		return flightOut{code: http.StatusTooManyRequests, body: ErrorBody("queue full"), retryAfter: true}
	}
	s.cAdmitted.Inc()

	out := <-j.done
	if out.err != nil {
		code := http.StatusInternalServerError
		if errors.Is(out.err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		return flightOut{code: code, body: ErrorBody(out.err.Error())}
	}
	enc := s.tracer.Start("encode", reqID)
	body, err := json.Marshal(out.result)
	enc.End()
	if err != nil {
		return flightOut{code: http.StatusInternalServerError, body: ErrorBody(err.Error())}
	}
	return flightOut{code: http.StatusOK, body: body}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.gate.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{
		"status":      status,
		"workers":     s.cfg.Workers,
		"queue_cap":   s.cfg.QueueCap,
		"queue_depth": s.queue.depth(),
	})
}

// handleMetrics renders the registry in the Prometheus text format —
// registration order with label values sorted, so the output for a
// fixed set of values is byte-deterministic.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// handleTelemetry serves the registry as a mergeable JSON snapshot: the
// router pulls these from every replica and bucket-merges the
// histograms into true fleet-wide quantiles.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.TelemetrySnapshot())
}

// TelemetrySnapshot returns the mergeable telemetry snapshot served on
// /telemetry, for in-process consumers (tests, embedding programs).
func (s *Server) TelemetrySnapshot() obs.Snapshot {
	return s.reg.Snapshot()
}

// handleTrace streams the merged Chrome trace: the retained wall-clock
// request spans laid alongside the most recent scenario run's
// virtual-time rank tracks. Load it in Perfetto (ui.perfetto.dev).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.WriteTrace(w)
}

// WriteTrace writes the merged wall-clock + virtual-time Chrome trace
// document (cmd/resilienced's -trace-dir dump and the /debug/trace
// endpoint share it).
func (s *Server) WriteTrace(w io.Writer) error {
	s.mu.Lock()
	rec := s.lastRec
	s.mu.Unlock()
	return obs.WriteChromeTrace(w, s.tracer.Spans(), rec, nil)
}

// RetryAfterSeconds renders a Retry-After hint in whole seconds, rounded
// up and at least 1. The router sends its own 429s through it too.
func RetryAfterSeconds(d time.Duration) int {
	n := int(math.Ceil(d.Seconds()))
	if n < 1 {
		n = 1
	}
	return n
}

// ErrorBody renders the canonical error payload as bytes (the same
// bytes WriteError produces), so flight outcomes fan out byte-identical
// errors too. The router's own error answers are these bytes as well.
func ErrorBody(msg string) []byte {
	body, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		return []byte(`{"error":"internal"}`)
	}
	return body
}

// WriteError sends the canonical error payload with the given status.
func WriteError(w http.ResponseWriter, code int, msg string) {
	writeRaw(w, code, ErrorBody(msg))
}

// writeRaw sends pre-marshaled JSON bytes untouched — cache hits and
// coalesced fan-outs must reproduce the original body exactly.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// WriteJSON marshals v in one shot (no Encoder trailing newline) so the
// response bytes match json.Marshal of the same value exactly — the
// load generator compares them byte-for-byte against its oracle.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRaw(w, code, body)
}
