package fleet_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
	"resilience/internal/service"
	"resilience/internal/service/router"
)

// broken is the invariant every e2e evaluator is built to fail, so the
// full detect-and-shrink pipeline runs.
const broken = chaos.InvConvergence

// campaign is the bounded e2e campaign: small enough for CI.
func campaign(n int) fleet.Options {
	return fleet.Options{
		Campaign:   chaos.Options{N: n, Seed: 7},
		Batch:      6,
		Workers:    3,
		MaxShrinks: 2,
	}
}

func bootFleet(t *testing.T, replicas int) (*router.Router, string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, replicas)
	servers := make([]*httptest.Server, replicas)
	for i := range urls {
		ts := httptest.NewServer(service.New(service.Config{Workers: 2, QueueCap: 64}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		servers[i] = ts
	}
	rt, err := router.New(router.Config{Replicas: urls, HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts.URL, servers
}

func stream(t *testing.T, rep *fleet.Report) string {
	t.Helper()
	var b strings.Builder
	if err := fleet.WriteVerdicts(&b, rep.Lines); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFleetDeterminismAcrossReplicaCounts is the fleet determinism
// contract end to end: the same bounded campaign, run against the
// in-process oracle, a router over ONE replica, and a router over THREE
// replicas, must produce byte-identical verdict streams, identical
// failure sets, and byte-identical server-side-shrunk minimal scenarios
// — sharding, arrival order, caching, and replica count must not be able
// to change a single byte.
func TestFleetDeterminismAcrossReplicaCounts(t *testing.T) {
	opts := campaign(24)
	ctx := context.Background()

	oracleRep, err := fleet.Run(ctx, opts, fleet.NewOracle(broken, 4))
	if err != nil {
		t.Fatal(err)
	}
	if oracleRep.Failed == 0 {
		t.Fatal("broken campaign produced no failures — the e2e pipeline exercised nothing")
	}
	if len(oracleRep.Shrunk) == 0 {
		t.Fatal("no failure was shrunk")
	}
	oracleStream := stream(t, oracleRep)

	for _, replicas := range []int{1, 3} {
		_, base, _ := bootFleet(t, replicas)
		rep, err := fleet.Run(ctx, opts, fleet.NewClient(base, broken))
		if err != nil {
			t.Fatalf("%d replicas: %v", replicas, err)
		}
		if got := stream(t, rep); got != oracleStream {
			t.Errorf("%d replicas: verdict stream differs from oracle\n%s", replicas, firstDiff(got, oracleStream))
		}
		if len(rep.Shrunk) != len(oracleRep.Shrunk) {
			t.Fatalf("%d replicas: %d shrunk failures, oracle %d", replicas, len(rep.Shrunk), len(oracleRep.Shrunk))
		}
		for i, sh := range rep.Shrunk {
			want := oracleRep.Shrunk[i]
			if sh.Index != want.Index || sh.Args != want.Args || sh.Verdict != want.Verdict {
				t.Errorf("%d replicas: shrunk %d differs\n got: #%d %s\nwant: #%d %s",
					replicas, i, sh.Index, sh.Args, want.Index, want.Args)
			}
		}
		if rep.OK != oracleRep.OK || rep.Expected != oracleRep.Expected || rep.Failed != oracleRep.Failed {
			t.Errorf("%d replicas: counts (%d,%d,%d) != oracle (%d,%d,%d)", replicas,
				rep.OK, rep.Expected, rep.Failed, oracleRep.OK, oracleRep.Expected, oracleRep.Failed)
		}
	}
}

// firstDiff renders the first differing line of two streams.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + g[i] + "\n  vs " + w[i]
		}
	}
	return "streams differ in length"
}

// TestFleetReplicaDeathMidCampaign kills one of three replicas while the
// campaign is in flight. The router must re-shard only the dead
// replica's key range and the client must retry backpressured items, so
// the campaign completes with every scenario's verdict exactly once —
// the final stream still byte-equals the oracle — and the router's
// reroute/campaign counters reconcile with the scenario count.
func TestFleetReplicaDeathMidCampaign(t *testing.T) {
	opts := campaign(30)
	opts.MaxShrinks = 1
	ctx := context.Background()

	oracleRep, err := fleet.Run(ctx, opts, fleet.NewOracle(broken, 4))
	if err != nil {
		t.Fatal(err)
	}

	rt, base, servers := bootFleet(t, 3)
	var once sync.Once
	opts.Progress = func(done, total int) {
		if done >= opts.Batch {
			once.Do(func() {
				servers[0].CloseClientConnections()
				servers[0].Close()
			})
		}
	}
	rep, err := fleet.Run(ctx, opts, fleet.NewClient(base, broken))
	if err != nil {
		t.Fatal(err)
	}

	// Verdict-count algebra: exactly one verdict per scenario (no index
	// lost, none duplicated), and the stream byte-equals the oracle's.
	if len(rep.Lines) != opts.Campaign.N {
		t.Fatalf("%d verdict lines for %d scenarios", len(rep.Lines), opts.Campaign.N)
	}
	if rep.OK+rep.Expected+rep.Failed != opts.Campaign.N {
		t.Fatalf("verdict counts %d+%d+%d do not sum to %d", rep.OK, rep.Expected, rep.Failed, opts.Campaign.N)
	}
	if got := stream(t, rep); got != stream(t, oracleRep) {
		t.Errorf("stream after replica death differs from oracle\n%s", firstDiff(got, stream(t, oracleRep)))
	}

	// The dead replica must be off the ring, and the campaign counters
	// must have seen at least one verdict job per scenario (retries may
	// add more, losses may not subtract).
	alive := 0
	for _, m := range rt.Members() {
		if m.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Errorf("%d replicas alive after death, want 2", alive)
	}
	metrics := scrape(t, base+"/metrics")
	if jobs := seriesValue(metrics, "resilience_router_campaign_jobs_total"); jobs < float64(opts.Campaign.N) {
		t.Errorf("campaign_jobs_total = %v, want >= %d", jobs, opts.Campaign.N)
	}
	if v := seriesValue(metrics, "resilience_router_campaign_verdicts_total"); v < float64(opts.Campaign.N) {
		t.Errorf("campaign_verdicts_total = %v, want >= %d", v, opts.Campaign.N)
	}
	if f := seriesValue(metrics, "resilience_router_campaign_fail_total"); f < float64(rep.Failed) {
		t.Errorf("campaign_fail_total = %v, want >= %d", f, rep.Failed)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
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

func seriesValue(metrics, name string) float64 {
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return -1
}

// TestFleetBareReplica points the HTTP client straight at one replica:
// its own /batch serves the campaign, no router in between, and the
// stream is still the oracle's bytes.
func TestFleetBareReplica(t *testing.T) {
	opts := campaign(12)
	opts.MaxShrinks = 1
	ctx := context.Background()

	oracleRep, err := fleet.Run(ctx, opts, fleet.NewOracle(broken, 4))
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Workers: 2, QueueCap: 64})
	var batches, others atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/batch" {
			batches.Add(1)
		} else {
			others.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	rep, err := fleet.Run(ctx, opts, fleet.NewClient(ts.URL, broken))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stream(t, rep), stream(t, oracleRep); got != want {
		t.Errorf("bare-replica stream differs from oracle\n%s", firstDiff(got, want))
	}
	if batches.Load() == 0 || others.Load() != 0 {
		t.Errorf("campaign made %d /batch and %d other requests, want /batch only", batches.Load(), others.Load())
	}
}

// TestVerdictKeyRoundTrip is the scenario-codec property test over the
// wire path: for generated campaign scenarios, encoding into a verdict
// job, keying through service.CanonicalKey, stripping the key prefix,
// and decoding back must reproduce the scenario unchanged — the cache
// key IS the canonical scenario.
func TestVerdictKeyRoundTrip(t *testing.T) {
	opts := chaos.Options{Seed: 11}
	for i := 0; i < 64; i++ {
		s := chaos.ScenarioAt(opts, i)
		args := s.Args()
		key, cacheable, err := service.CanonicalKey(service.JobRequest{Scenario: args, Verdict: true})
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if !cacheable {
			t.Fatalf("scenario %d: verdict job not cacheable", i)
		}
		rest, ok := strings.CutPrefix(key, "j1|verdict||")
		if !ok {
			t.Fatalf("scenario %d: key %q missing verdict prefix", i, key)
		}
		back, err := chaos.ParseArgs(rest)
		if err != nil {
			t.Fatalf("scenario %d: key args do not decode: %v", i, err)
		}
		if back.Args() != args {
			t.Fatalf("scenario %d: encode->key->decode changed the scenario\n in: %s\nout: %s", i, args, back.Args())
		}
	}
}

// TestDistillDeterministic pins the corpus distiller: same campaign,
// same corpus bytes; every entry re-parses as a codec fixpoint with at
// least one reason; duplicates collapse with a dup-key reason.
func TestDistillDeterministic(t *testing.T) {
	opts := chaos.Options{N: 48, Seed: 7}
	oracle := fleet.NewOracle("", 4)
	rep, err := fleet.Run(context.Background(), fleet.Options{Campaign: opts, Batch: 12}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fleet.Distill(opts, rep.Lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("48-scenario campaign distilled nothing")
	}
	b, err := fleet.Distill(opts, rep.Lines)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := chaos.WriteCorpus(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := chaos.WriteCorpus(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("distillation is not deterministic")
	}
	back, err := chaos.ReadCorpus(&ab)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(a) {
		t.Fatalf("corpus round-trip lost entries: %d -> %d", len(a), len(back))
	}
	for _, e := range back {
		if len(e.Reasons) == 0 || e.Reasons[0] == "" {
			t.Fatalf("entry %q has no reasons", e.Args)
		}
		s, err := chaos.ParseArgs(e.Args)
		if err != nil {
			t.Fatal(err)
		}
		if s.Args() != e.Args {
			t.Fatalf("corpus entry is not a codec fixpoint: %q", e.Args)
		}
	}
}

// TestCampaignDeterministicAcrossWorkers: the verdict stream of one
// campaign is byte-identical for any batch size and any number of
// batches in flight or scenarios evaluated at once.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	var want []string
	for _, c := range []struct{ batch, workers int }{{1, 1}, {7, 3}, {64, 8}} {
		opts := fleet.Options{Campaign: chaos.Options{N: 10, Seed: 42}, Batch: c.batch, Workers: c.workers}
		rep, err := fleet.Run(context.Background(), opts, fleet.NewOracle("", c.workers))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep.Lines
			continue
		}
		if !slices.Equal(rep.Lines, want) {
			t.Fatalf("batch=%d workers=%d: verdict stream depends on the partitioning\n%s", c.batch, c.workers,
				firstDiff(strings.Join(rep.Lines, "\n"), strings.Join(want, "\n")))
		}
	}
}

// TestBreakInvariantReportsAndShrinks: the checker's self-test hook must
// surface as a violation on faulted scenarios only and shrink to a
// minimal single-fault scenario — the end-to-end path `chaos-fleet -break`
// uses to prove the reporter works.
func TestBreakInvariantReportsAndShrinks(t *testing.T) {
	opts := fleet.Options{Campaign: chaos.Options{N: 12, Seed: 3}, MaxShrinks: 1}
	rep, err := fleet.Run(context.Background(), opts, fleet.NewOracle(broken, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 || len(rep.Shrunk) != 1 {
		t.Fatalf("campaign with -break: %d failures, %d shrunk", len(rep.Failures), len(rep.Shrunk))
	}
	want := chaos.SelfTestViolation(broken).String()
	for i, v := range rep.Verdicts {
		faulted := len(chaos.ScenarioAt(opts.Campaign, i).Faults) > 0
		if got := slices.Contains(v.Violations, want); got != faulted {
			t.Errorf("scenario %d: deliberate violation present=%t, faults injected=%t\n%s", i, got, faulted, rep.Lines[i])
		}
	}
	min, err := chaos.ParseArgs(rep.Shrunk[0].Args)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shrunk[0].Index != rep.Failures[0] || len(min.Faults) != 1 {
		t.Fatalf("broken-invariant scenario #%d should shrink to one fault, got #%d %s",
			rep.Failures[0], rep.Shrunk[0].Index, rep.Shrunk[0].Args)
	}
}

// TestBreakRejectedIdentically: a -break name that is no invariant is the
// same error from the oracle and from the HTTP client, raised before
// either evaluates anything.
func TestBreakRejectedIdentically(t *testing.T) {
	opts := fleet.Options{Campaign: chaos.Options{N: 4, Seed: 1}}
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "no request expected", http.StatusInternalServerError)
	}))
	defer ts.Close()
	oracle := fleet.NewOracle("gravity", 2)
	oracle.Runner = nil // running a scenario would dereference it
	_, oracleErr := fleet.Run(context.Background(), opts, oracle)
	_, clientErr := fleet.Run(context.Background(), opts, fleet.NewClient(ts.URL, "gravity"))
	if oracleErr == nil || clientErr == nil {
		t.Fatalf("unknown invariant accepted: oracle %v, client %v", oracleErr, clientErr)
	}
	if oracleErr.Error() != clientErr.Error() || !strings.Contains(oracleErr.Error(), `"gravity" is not an invariant`) {
		t.Errorf("oracle and client disagree on an unknown invariant\noracle: %v\nclient: %v", oracleErr, clientErr)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("client sent %d requests before rejecting the name", n)
	}
}
