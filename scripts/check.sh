#!/bin/sh
# Repo health check, in order:
#   - formatting, build, the tier-1 tests and vet;
#   - the retired-name gates: no non-test Go file outside bench/ reads the
#     environment, no deleted path, knob, package or helper is named again
#     (one `retired` row each), the even fault placement has one caller, in
#     core, and no store is built outside internal/core and
#     internal/checkpoint;
#   - a race-detector pass over the packages with real concurrency (the
#     simulated cluster, the solvers that run inside it, and the parallel
#     experiment engine);
#   - a shared-baseline gate (core.System and the facade's
#     content-addressed table under the race detector; one fault-free run
#     per scheme basket);
#   - a seeded chaos fault campaign under the race detector;
#   - short fuzz smokes over the seed corpora;
#   - the observation-disabled zero-allocation gates;
#   - a service integration gate (resilienced under a seeded resilience-load
#     burst: queue-full rejections, byte-identical responses, clean drain);
#   - a chaos-fleet gate (a sharded 2k-scenario campaign byte-compared to
#     the in-process oracle, through the router twice — the second time
#     answered by the router's front tier — and straight at one replica,
#     plus an injected violation that must shrink server-side to a minimal
#     scenario).
# Timings are not gated here: the repository benchmark (go run ./bench,
# BENCHMARK.json) is the one perf ledger.
set -eux

cd "$(dirname "$0")/.."

test -z "$(gofmt -l .)"
go build ./...
go test ./...
go vet ./...

# Retired-name gates. `retired MESSAGE PATTERN PATHSPEC...` fails the
# check with MESSAGE when the extended regular expression PATTERN matches
# a line of the tracked files PATHSPEC selects. Each deleted path, knob,
# package or helper has one row; the names are spelled in halves so this
# script passes itself, and the Markdown documents, which record what was
# deleted, are not searched unless a row says otherwise.
retired() {
    msg=$1 pattern=$2
    shift 2
    if git grep -nE "$pattern" -- "$@"; then
        echo "$msg"; exit 1
    fi
}

# One path for configuration: it enters through struct fields and flags
# only, so the same command line renders the same tables in any shell;
# and the second rank scheduler, the second SpMV layout, the five
# environment knobs and the halo/compute overlap mode (its switch, its
# kernel, its NIC clock, its span kinds and its chaos invariant) stay
# deleted, so a second SpMV mode cannot come back unreviewed.
retired "non-test Go code outside bench/ reads the environment" \
    'os\.(Getenv|LookupEnv|Environ)' '*.go' ':!*_test.go' ':!bench'
retired "a deleted knob is named again" \
    'RES''_(SCHED|SPMV|WORKERS|OVERLAP|OBS)|Sched''Coop|SpMV''SELL|Set''Overlap|mulVecDist''Overlap|nic''Free|SpanSpMV''Interior|InvOverlap''Equiv' . ':!*.md'
# Likewise the item-by-item /batch fan-out: a batch travels as one
# sub-batch per replica on both tiers, so the setting that paced the old
# fan-out and the fleet client's per-item fallback stay deleted.
retired "the item-by-item batch path is named again" \
    'Batch''Concurrency|no''Batch|solve''All' . ':!CHANGES.md' ':!ROADMAP.md'
# Likewise the second perf ledger (the JSON-diffing tool, its numbered
# baseline files, the environment variable its test wrappers read) and
# the second campaign driver: bench/ measures, fleet.Run drives.
# bench/README.md still names the old tool and is not this gate's to edit.
retired "a retired perf ledger or campaign driver is named again" \
    'bench''diff|BENCH''_[0-9]|RES''_SCALE|Run''Campaign' . ':!CHANGES.md' ':!ROADMAP.md' ':!bench/README.md'
# Likewise the second collective rendezvous and the collectives no solver
# calls, and the hand-written copies of the scheme vocabulary: one enter
# in internal/cluster/collectives.go, one scheme table in
# internal/core/schemes.go.
retired "a retired collective or scheme-name copy is named again" \
    'enter''Scalar|Allreduce''Max|Bcast''Int|Allgather''V|canonical''SchemeName|kind''Names' . ':!CHANGES.md' ':!ROADMAP.md'
# Likewise the runtime's second wait path: a blocked rank records what it
# waits for and yields to its group's driver (internal/cluster/sched.go),
# so the condition variables, the inbox's parked-queue and parked-halo
# fields and the wake-every-inbox walk stay deleted.
retired "a second rank wait path is named again" \
    'sync\.Cond|\.Broadcast\(|\.Signal\(|wait''Q|halo''Wait|wake''Inboxes' internal/cluster ':!*_test.go'
# Likewise the second and third observability packages: internal/obs is
# the one home of spans, counters, the run's event log (rank 0's, on the
# recorder), the registry, the rings and the one Chrome-trace encoder.
# Markdown documents, which record the fold, are not searched.
retired "a retired observability package or helper is named again" \
    'internal/tele''metry|resilience/internal/tr''ace"|WriteMerged''ChromeTrace|New''Trace\(|Sanitize''ID|Spans''For' . ':!*.md'
# Likewise the hand-placed fault schedules and the code nothing called:
# core.System.Spread is the one place the paper's Section 5.2 protocol is
# applied, so the even placement has exactly one non-test caller, in
# internal/core; the constructors it replaced, the solver's distributed
# workspace, the unused Cholesky and the worker-count facade stay deleted.
retired "a retired fault constructor, workspace or facade helper is named again" \
    'NewSchedule''Classes|NewSin''gle|RunExperiment''Workers|NewChol''esky|(^|[^q])Work''space' . ':!*.md'
test "$(git grep -n 'fault\.Even''ly(' -- '*.go' ':!*_test.go' | sed 's/:.*//; s#/[^/]*$##')" = internal/core
# Likewise the nonblocking point-to-point API: a LocalOp moves halo values
# only through its cluster.Halo plan (one-sided, double-buffered slots),
# and the tagged Send/Recv path serves one-time setup.
retired "the retired nonblocking point-to-point API is named again" \
    'I''Send|IRecv''Into|Send''Req|Recv''Req' . ':!*.md'
# Likewise the code no program reached and the settings nobody set:
# power.Meter is the one RAPL stand-in and cluster.Comm plays the CPUfreq
# governors; the cache shard count, the router's forward timeout, the
# LI/LSI construction iteration cap and the LCR error bound are constants
# (the bound's constant carries a "Default" prefix, hence the [^t]).
# TestEveryDeclarationHasACaller keeps unreached declarations out.
retired "a deleted emulation or setting is named again" \
    'New''Governor|New''Sampler|PerCore''Energy|Cache''Shards|Forward''Timeout|MaxLocal''Iters|(^|[^t])Lossy''ErrBound' . ':!*.md'
# Likewise the second and third checkpoint/restart types: recovery.CR is
# one leveled scheme (CR-M, CR-D and LCR one level, CR-2L memory then
# disk), so LCR's and CR-2L's own types, the disk-level and compression-
# ratio knobs, core's second store choice and the phase-name copies (a
# recovery phase is named after its span kind) stay deleted, and so does
# the initial-guess field at every layer: every solve starts from x0 = 0.
# DefaultLossyRatio, the LCR operating point, is a constant, hence the
# [^t].
retired "a retired checkpoint/restart type, scheme knob or initial guess is named again" \
    'type L''CR struct|type CR''2L struct|Disk''Every|(^|[^t])Lossy''Ratio|lossy''Store|Phase(Recon''struct|Check''point|Roll''back)|(^|[^[:alnum:]_])X''0([^[:alnum:]_]|$)' \
    '*.go' ':!*_test.go'
# Likewise the meter's second record path: a rank records through the
# power.Core handle it takes once, with its phase entry resolved once per
# phase switch, so the per-record Meter method, its per-core helper and
# the per-record phase scan stay deleted.
retired "the meter's second record path is named again" \
    'Meter\) Re''cord|coreMeter\) re''cord|add''Phase|meter\.Re''cord\(' . ':!*.md'
# Likewise the programs that did another program's job: chaos-fleet runs
# every campaign (-oracle -recheck, -replay), resilience-bench -exp fig1
# prints the MTBF projection with its node-count sweep, cgsolve runs the
# one traced solve, and the experiments stand for the two mini-figure
# examples.
retired "a folded program or the second traced-solve mode is named again" \
    'cmd/cha''os([^-]|$)|mtbf''proj|trace-''matrix|examples/exa''scale|examples/model''check' . ':!*.md'

# Likewise the second and third fabric clients: service.Client holds the
# one retry loop the chaos fleet and the load generator share, and the
# fleet re-sends backpressured items as a smaller /batch, never through
# /solve.
retired "a retired fabric client retry path is named again" \
    'post''Retry|finish''Item|retry''Sleep|sleep''Ctx' . ':!*.md'
retired "a retired fabric client retry path is named again" \
    '"/sol''ve"' internal/chaos/fleet

# Likewise the fabric's fourth job kind and the second sequential CG: the
# service answers scenario, verdict and sleep jobs (the paper's
# experiments run through resilience-bench and the facade), and
# solver.SeqPCGWork is the one sequential CG loop — with a unit diagonal
# it is plain CG bit for bit.
retired "the experiment job kind or the second sequential CG is named again" \
    'runExperiment''Job|json:"experi''ment|SeqCG''Matrix|func SeqCG''\(' . ':!*.md'

# Likewise the second and third distributed CG: solver.CG is the one
# distributed loop, plain CG that always confirms convergence on the true
# residual, so pipelined CG, the distributed Jacobi preconditioner (its
# scenario flag and ablation too), the fused two-value allreduce they
# needed and the verify switch stay deleted.
retired "a retired CG variant or its knobs are named again" \
    'Pipelined''CG|ablation-''pcg|ablation-''pipeline|"-jaco''bi"|VerifyTrue''Residual|AllreduceSum''2' . ':!*.md'

# Likewise the model's second and third store choices: core.CheckpointLevels
# chooses every checkpoint store, the model prices the levels a run wrote
# (each from its store by model.NewLevel), and the projection prices the
# stores core chooses, so LCR's own prediction, its compression-ratio knob
# and the hand-set checkpoint power fraction stay deleted, and no non-test
# Go outside internal/core and internal/checkpoint builds a store.
retired "a retired checkpoint model name is named again" \
    'Predict''LCR|Compress''Ratio|PCkpt''Frac' . ':!*.md'
retired "a checkpoint store is built outside internal/core" \
    '(Mem''Store|Disk''Store|Lo''ssy)\{' '*.go' ':!*_test.go' ':!internal/core' ':!internal/checkpoint'

# Likewise the runtime's second deadlock detector: the token scheduler's
# all-blocked verdict (sched.deadlock in internal/cluster/sched.go) names
# every rank, returned ones included, so the exited-rank watch — its exit
# set, its wake walk, its check in every wait and its messages — stays
# deleted.
retired "the exited-rank deadlock watch is named again" \
    'mark''Exited|wake''Exited|is''Exited|exited'' without' . ':!*.md'

# Likewise the experiments' hand-written run paths: every solve sweep
# lists its cells, and Config.run (internal/experiments/engine.go)
# generates, spreads, solves and checks them, so the per-runner system
# loader, scheme runner and single-fault runner, the system cache and the
# matrix alias stay deleted.
retired "a retired experiment run helper is named again" \
    'load''System|run''Scheme|runWith''SingleFault|sys''Cache|core''Matrix' . ':!*.md'

go test -race ./internal/cluster/... ./internal/solver/... ./internal/experiments/... \
    ./internal/service/... ./internal/obs/...

# The scheduler's wait/wake state is reached by every rank at once, on one
# execution token or several: repeat the cluster's suite under the race
# detector — its wait-path, deadlock and pinned-workload tests each run at
# W = 1, 2 and p tokens — with a timeout far below the default so a lost
# wake-up fails instead of hanging the gate. -short trims only the solve
# battery (every scheme through core.Run at W = 1, 2 and 4) to one of its
# two matrices, so ten race passes fit the timeout; the race pass above
# runs it whole.
go test -race -short -count=10 -timeout 5m ./internal/cluster

# Shared fault-free baseline: core.System's single-flight table is
# reached by every concurrent solve of one system, and the facade finds
# its System by content. Repeat both suites under the race detector, then
# gate what the sharing is for: the benchmark's six-scheme basket (LI,
# LI-DVFS, LSI-DVFS, CR-M, CR-D, RD, 5 faults) on one system performs
# exactly one fault-free run.
go test -race -count=5 -timeout 5m -run 'FaultFree|Systems' ./internal/core
go test -race -count=5 -timeout 5m -run '^TestSolveBaseline' .
go test -count=1 -v -run '^TestSolveBaselineOncePerBasket$' . |
    grep -q '^--- PASS: TestSolveBaselineOncePerBasket'

# Flake audit: the chaos and service suites lean hardest on goroutine
# pools, httptest servers, and arrival-order-independent determinism
# contracts — run them five times under the race detector so ordering
# flakes surface here instead of once a week in CI. This is also the
# repeated race pass over the /batch seam (replica handler, the router's
# sub-batch failover, the fleet client): internal/service/... and
# internal/chaos/fleet are both inside it. TestRunnerReuseInvisible —
# four workers sharing one Runner's recorder pool and the checker's
# scratch pool, verdicts byte-equal to a fresh Runner per scenario — is in
# internal/chaos, so this line is its five race-detector repeats too.
go test -race -count=5 ./internal/chaos/... ./internal/service/...
# The duplicate phase through a router: its hits are the front tier's, so
# the test must not depend on a replica racing to see one.
go test -count=20 -run '^TestDupPhaseThroughRouter$' ./cmd/resilience-load

# Chaos: a seeded fault campaign (all ten default schemes — the paper's
# eight plus ESR and LCR — 0-3 faults per scenario, full invariant
# battery, the rerun-based invariants included) over the in-process
# oracle, under the race detector. Any failure prints a replayable
# '-replay' flag string.
go run -race ./cmd/chaos-fleet -oracle -recheck -n 50 -seed 1

# Fuzz smokes: a few seconds per target on top of the checked-in seed
# corpora (testdata/fuzz/). Coverage-guided mutation beyond the corpus;
# any crasher is written back as a new seed.
go test -run '^$' -fuzz '^FuzzCSRMulVec$' -fuzztime 5s ./internal/sparse
go test -run '^$' -fuzz '^FuzzPartition$' -fuzztime 5s ./internal/sparse
go test -run '^$' -fuzz '^FuzzScenarioArgs$' -fuzztime 5s ./internal/chaos
go test -run '^$' -fuzz '^FuzzCanonicalKey$' -fuzztime 5s ./internal/service
go test -run '^$' -fuzz '^FuzzSchemeSpec$' -fuzztime 5s ./internal/service

# The hot paths must stay allocation-free with no recorder attached
# (attaching one may allocate for span storage; that variant is measured
# by BenchmarkCGIterationObserved but not gated): the CG iteration on one
# execution token and on two (an input on each side of the runtime's
# token rule), and on two tokens over a band, whose SpMV takes the run
# kernel, the all-to-all halo exchange at 16 and 32 ranks (every
# rank's plan read by every other rank, which the 4-rank CG iteration
# cannot show), and
# the blocking Send/RecvInto ring plus scalar allreduce at 16 ranks, the
# setup-time path neither of those reaches.
go test -run '^$' -bench '^BenchmarkCGIteration$|^BenchmarkHaloExchangeAllToAll$' \
    -benchmem -benchtime 2000x ./internal/solver |
    awk '/^Benchmark/ { if ($(NF-1) != 0) { print "ALLOCATING HOT PATH: " $0; bad = 1 } found++ }
         END { exit (bad || found != 5) }'
go test -run '^$' -bench '^BenchmarkClusterStep$' -benchmem -benchtime 2000x ./internal/cluster |
    awk '/^Benchmark/ { if ($(NF-1) != 0) { print "ALLOCATING HOT PATH: " $0; bad = 1 } found++ }
         END { exit (bad || found != 1) }'

# The two monitor calls every rank makes every iteration allocate nothing
# when no fault is due, and a warm chaos.Runner stays inside its committed
# allocation ceiling for one pinned scenario (the ceiling lives next to
# the test; a job that throws its scratch away again lands ~2x above it).
go test -count=1 -v -run '^TestMonitorBoundaryAllocatesNothing$' ./internal/core |
    grep -q '^--- PASS: TestMonitorBoundaryAllocatesNothing'
go test -count=1 -v -run '^TestRunAllocBudget$' ./internal/chaos |
    grep -q '^--- PASS: TestRunAllocBudget'

# The cache serving hot paths (hit, miss, single-flight join) run once
# per request on the daemon and must also stay allocation-free.
go test -run '^$' -bench '^BenchmarkCacheGetHit$|^BenchmarkCacheGetMiss$|^BenchmarkSingleflightJoin$' \
    -benchmem -benchtime 2000x ./internal/service/cache |
    awk '/^Benchmark/ { if ($(NF-1) != 0) { print "ALLOCATING HOT PATH: " $0; bad = 1 } found++ }
         END { exit (bad || found != 3) }'

# The telemetry hot paths run on every request and every histogram
# sample; they must stay allocation-free so metrics can never perturb
# what they measure.
go test -run '^$' -bench '^BenchmarkHistogramRecord$|^BenchmarkSpanStartEnd$' \
    -benchmem -benchtime 2000x ./internal/obs |
    awk '/^Benchmark/ { if ($(NF-1) != 0) { print "ALLOCATING HOT PATH: " $0; bad = 1 } found++ }
         END { exit (bad || found != 2) }'

# Fabric gate: boot a full solve topology — one resilience-router over
# two deliberately small resilienced replicas — then drive three phases
# through the router: a sleep-job burst that must hit queue-full (429 +
# the router's Retry-After, retried to completion), a seeded scenario
# stream whose responses must be byte-identical to the offline oracle,
# and a duplicate-heavy zipf stream (20k requests over 96 unique jobs)
# that must clear a 50% fleet cache hit rate with every response still
# byte-identical. Finish with a SIGTERM drain of all three processes,
# each of which must exit clean.
svc_dir=$(mktemp -d)
go build -o "$svc_dir/resilienced" ./cmd/resilienced
go build -o "$svc_dir/resilience-router" ./cmd/resilience-router
go build -o "$svc_dir/resilience-load" ./cmd/resilience-load

wait_addr() {
    addr=''
    for _ in $(seq 1 100); do
        addr=$(sed -n 's#.*listening on http://\([^ ]*\).*#\1#p' "$1" | head -n 1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    test -n "$addr"
    echo "$addr"
}

"$svc_dir/resilienced" -addr 127.0.0.1:0 -workers 2 -queue 2 -retry-after 1s \
    > "$svc_dir/replica1.log" 2>&1 &
rep1_pid=$!
"$svc_dir/resilienced" -addr 127.0.0.1:0 -workers 2 -queue 2 -retry-after 1s \
    > "$svc_dir/replica2.log" 2>&1 &
rep2_pid=$!
rep1_addr=$(wait_addr "$svc_dir/replica1.log")
rep2_addr=$(wait_addr "$svc_dir/replica2.log")

"$svc_dir/resilience-router" -addr 127.0.0.1:0 \
    -replicas "http://$rep1_addr,http://$rep2_addr" -health-every 500ms \
    > "$svc_dir/router.log" 2>&1 &
router_pid=$!
router_addr=$(wait_addr "$svc_dir/router.log")

"$svc_dir/resilience-load" -addr "http://$router_addr" -n 16 -c 8 -seed 1 \
    -burst 16 -sleep-ms 200 \
    -dup-jobs 20000 -dup-unique 96 -dup-zipf 1.2 -min-hit-rate 0.5

# The router's fleet-aggregate hit counter must have moved.
curl -s "http://$router_addr/metrics" |
    awk '/^resilience_router_cache_hits_total / { found = ($2 > 0) } END { exit found ? 0 : 1 }' ||
    { echo "router reported no cache hits"; exit 1; }
# And the router answered repeats itself, from its front tier.
curl -s "http://$router_addr/metrics" |
    awk '/^resilience_router_front_hits_total / { found = ($2 > 0) } END { exit found ? 0 : 1 }' ||
    { echo "router front tier answered no repeat"; exit 1; }
# That load sent /solve only, and every miss travelled as a sub-batch:
# the one forward series moved, and no /solve-only series exists.
curl -s "http://$router_addr/metrics" |
    awk '/^resilience_router_batch_forward_seconds_count / { found = ($2 > 0) }
         /^resilience_router_forward_seconds/ { bad = 1 }
         END { exit (found && !bad) ? 0 : 1 }' ||
    { echo "a router /solve miss did not travel as a sub-batch"; exit 1; }

# Fleet gate: shard a bounded 2k-scenario chaos campaign across the same
# router + two replicas and byte-compare the indexed verdict stream
# against the in-process oracle — sharding, batching, caching, and
# arrival order must not change one byte. Then inject a violation
# (-break convergence) and require the server-side shrinker to reduce it
# to a minimal scenario of at most 3 fault events, and the router's
# campaign counters to have seen the whole campaign.
go build -o "$svc_dir/chaos-fleet" ./cmd/chaos-fleet
"$svc_dir/chaos-fleet" -oracle -n 2000 -seed 1 -verdicts-out "$svc_dir/oracle.verdicts"
"$svc_dir/chaos-fleet" -addr "http://$router_addr" -n 2000 -seed 1 \
    -verdicts-out "$svc_dir/fleet.verdicts"
cmp "$svc_dir/oracle.verdicts" "$svc_dir/fleet.verdicts"

# The same campaign through the router again: its front tier now holds
# every verdict and answers all 2000 jobs itself, and the stream must
# still be the oracle's.
front_hits() {
    curl -s "http://$router_addr/metrics" |
        awk '/^resilience_router_front_hits_total / { print $2 }'
}
front0=$(front_hits)
"$svc_dir/chaos-fleet" -addr "http://$router_addr" -n 2000 -seed 1 \
    -verdicts-out "$svc_dir/front.verdicts"
cmp "$svc_dir/oracle.verdicts" "$svc_dir/front.verdicts"
test "$(($(front_hits) - front0))" -ge 2000

# The same campaign straight at one bare replica: replica and router
# speak the same /batch, so the stream must be the oracle's there too.
"$svc_dir/chaos-fleet" -addr "http://$rep1_addr" -n 2000 -seed 1 \
    -verdicts-out "$svc_dir/replica.verdicts"
cmp "$svc_dir/oracle.verdicts" "$svc_dir/replica.verdicts"

broken_rc=0
"$svc_dir/chaos-fleet" -addr "http://$router_addr" -n 200 -seed 1 -break convergence \
    > "$svc_dir/broken.out" 2>&1 || broken_rc=$?
cat "$svc_dir/broken.out"
test "$broken_rc" -eq 1
grep -q 'minimal failing scenario' "$svc_dir/broken.out"
awk '/-faults/ { for (i = 1; i <= NF; i++) if ($i == "-faults") { n = split($(i+1), a, ","); if (n > 3) { print "shrunk scenario has " n " fault events: " $0; bad = 1 } } }
     END { exit bad }' "$svc_dir/broken.out"

curl -s "http://$router_addr/metrics" |
    awk '/^resilience_router_campaign_jobs_total / { jobs = $2 }
         /^resilience_router_campaign_verdicts_total / { v = $2 }
         /^resilience_router_campaign_fail_total / { f = $2 }
         END { exit (jobs >= 2200 && v >= 2200 && f > 0) ? 0 : 1 }' ||
    { echo "router campaign counters did not account for the fleet campaign"; exit 1; }

# Telemetry gate: at each replica, the wall-clock solve histogram must
# account for exactly the completed jobs (no sample lost, none double-
# counted), and the router's bucket-merged fleet histogram must equal
# the sum over replicas.
completed_of() {
    curl -s "http://$1/metrics" |
        awk '/^resilienced_jobs_completed_total / { print $2 }'
}
hist_count_of() {
    curl -s "http://$1/metrics" |
        awk '/^resilienced_solve_wall_seconds_count\{/ { s += $2 } END { print s + 0 }'
}
rep1_done=$(completed_of "$rep1_addr")
rep2_done=$(completed_of "$rep2_addr")
test "$(hist_count_of "$rep1_addr")" -eq "$rep1_done"
test "$(hist_count_of "$rep2_addr")" -eq "$rep2_done"
fleet_count=$(curl -s "http://$router_addr/metrics" |
    awk '/^resilience_router_fleet_solve_wall_seconds_count / { print $2 }')
test "$fleet_count" -eq "$((rep1_done + rep2_done))"

kill -TERM "$router_pid" "$rep1_pid" "$rep2_pid"
wait "$router_pid" "$rep1_pid" "$rep2_pid"
grep -q 'drained clean' "$svc_dir/router.log"
grep -q 'drained clean' "$svc_dir/replica1.log"
grep -q 'drained clean' "$svc_dir/replica2.log"

# Flight-recorder gate: kill a job mid-solve (1ms deadline on a 5s
# sleep) against a replica with a dump directory configured. The 504
# must produce a crash dump on disk naming the request ID.
"$svc_dir/resilienced" -addr 127.0.0.1:0 -workers 1 -queue 2 \
    -flight-dir "$svc_dir/flight" > "$svc_dir/flightrep.log" 2>&1 &
flight_pid=$!
flight_addr=$(wait_addr "$svc_dir/flightrep.log")
code=$(curl -s -o /dev/null -w '%{http_code}' \
    -H 'X-Request-Id: check-flight-1' -H 'Content-Type: application/json' \
    -d '{"sleep_ms":5000,"timeout_ms":1}' "http://$flight_addr/solve")
test "$code" -eq 504
grep -l 'check-flight-1' "$svc_dir"/flight/flight-resilienced-*.json
kill -TERM "$flight_pid"
wait "$flight_pid"
grep -q 'drained clean' "$svc_dir/flightrep.log"
rm -rf "$svc_dir"
