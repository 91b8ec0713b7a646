// Command benchdiff runs the repository's performance suite through
// testing.Benchmark, writes the results as JSON, and optionally compares
// them against a baseline file, failing (exit 1) on regressions.
//
// Usage:
//
//	benchdiff -out BENCH_1.json
//	benchdiff -out BENCH_2.json -baseline BENCH_1.json -threshold 0.2
//	benchdiff -filter SpMV -artifacts=false
//	benchdiff -list
//
// A benchmark regresses when its ns/op grows by more than the threshold
// fraction over the baseline, or when its allocs/op increase at all (a
// zero-allocation kernel starting to allocate is always a regression,
// whatever the timing noise says).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"resilience"
	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
	"resilience/internal/cluster"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/service"
	"resilience/internal/service/cache"
	"resilience/internal/solver"
	"resilience/internal/sparse"
	"resilience/internal/telemetry"
	"resilience/internal/vec"
)

// Schema identifies the JSON layout this command writes.
const Schema = "resilience-benchdiff/1"

// Record is one benchmark's measured cost.
type Record struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// File is the on-disk result set. NumCPU/GoMaxProcs distinguish 1-CPU
// container numbers from multicore runs when diffing trajectories (the
// goroutine scheduler's contention profile differs sharply between
// them); GitDirty flags numbers measured against uncommitted code.
type File struct {
	Schema      string `json:"schema"`
	CreatedUnix int64  `json:"created_unix"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"go_maxprocs"`
	GitRevision string `json:"git_revision,omitempty"`
	GitDirty    bool   `json:"git_dirty,omitempty"`
	// E2EFig3Seconds is the wall-clock of one fig3 end-to-end run at the
	// given scale, under the key "goroutine" (the name earlier BENCH
	// files used for the surviving runtime); min of 3.
	E2EFig3Seconds map[string]float64 `json:"e2e_fig3_seconds,omitempty"`
	E2EFig3Scale   string             `json:"e2e_fig3_scale,omitempty"`
	Benchmarks     map[string]Record  `json:"benchmarks"`
}

// gitRevision returns the current commit hash plus whether the tree has
// uncommitted changes ("" and false when git is unavailable).
func gitRevision() (rev string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	rev = strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		dirty = true
	}
	return rev, dirty
}

// Regression is one baseline comparison that exceeded the threshold.
type Regression struct {
	Name   string
	Reason string
}

// Diff compares cur against base. Missing or added benchmarks are not
// regressions (the suite evolves); only measured-vs-measured pairs count.
// toleranceBytes is the allowed absolute growth in bytes/op before a
// regression is flagged (0 means any growth fails).
func Diff(base, cur map[string]Record, threshold float64, toleranceBytes int64) []Regression {
	var regs []Regression
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, ok := base[name]
		if !ok {
			continue
		}
		c := cur[name]
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+threshold) {
			regs = append(regs, Regression{name, fmt.Sprintf("ns/op %.0f -> %.0f (+%.1f%% > %.0f%%)",
				b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), 100*threshold)})
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			regs = append(regs, Regression{name, fmt.Sprintf("allocs/op %d -> %d",
				b.AllocsPerOp, c.AllocsPerOp)})
		}
		if c.BytesPerOp > b.BytesPerOp+toleranceBytes {
			regs = append(regs, Regression{name, fmt.Sprintf("bytes/op %d -> %d (+%d > %d)",
				b.BytesPerOp, c.BytesPerOp, c.BytesPerOp-b.BytesPerOp, toleranceBytes)})
		}
	}
	return regs
}

// namedBench is one suite entry.
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// suite assembles the benchmark list: the hot kernels always, plus the
// paper-artifact experiments when artifacts is true.
func suite(scale string, artifacts bool) []namedBench {
	benches := kernelSuite()
	if artifacts {
		for _, r := range resilience.Experiments() {
			id := r.ID
			benches = append(benches, namedBench{
				name: "Experiment/" + id + "@" + scale,
				fn: func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := resilience.RunExperiment(id, scale); err != nil {
							b.Fatal(err)
						}
					}
				},
			})
		}
	}
	return benches
}

func kernelSuite() []namedBench {
	const n = 4096
	mkVec := func(seed float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = seed + float64(i%17)/17
		}
		return v
	}
	return []namedBench{
		{"SpMV/Laplacian2D-128", func(b *testing.B) {
			benchSpMV(b, 128)
		}},
		{"SpMVTransAdd/Laplacian2D-128", func(b *testing.B) {
			a := resilience.Laplacian2D(128)
			x, y := make([]float64, a.Rows), make([]float64, a.Rows)
			for i := range x {
				x[i] = float64(i % 31)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MulTransVecAdd(y, x)
			}
		}},
		{"Dot/4096", func(b *testing.B) {
			x, y := mkVec(1), mkVec(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = vec.Dot(x, y)
			}
		}},
		{"Axpy/4096", func(b *testing.B) {
			x, y := mkVec(1), mkVec(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vec.Axpy(1e-9, x, y)
			}
		}},
		{"DotAxpy/4096", func(b *testing.B) {
			x, y, z := mkVec(1), mkVec(2), mkVec(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = vec.DotAxpy(1e-9, x, y, z)
			}
		}},
		{"AxpyDot/4096", func(b *testing.B) {
			x, y := mkVec(1), mkVec(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = vec.AxpyDot(1e-9, x, y)
			}
		}},
		{"AllreduceScalar/p4", func(b *testing.B) {
			b.ReportAllocs()
			_, err := cluster.Run(4, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
				for i := 0; i < b.N; i++ {
					c.AllreduceScalarSum(float64(c.Rank()))
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}},
		{"HaloExchange/p4-g32", func(b *testing.B) {
			a := resilience.Laplacian2D(32)
			const ranks = 4
			part := sparse.NewPartition(a.Rows, ranks)
			b.ReportAllocs()
			b.ResetTimer()
			_, err := cluster.Run(ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
				op := solver.NewLocalOp(c, a, part)
				x := make([]float64, op.N)
				for i := range x {
					x[i] = float64(i % 13)
				}
				for i := 0; i < b.N; i++ {
					op.GatherHalo(c, x)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}},
		{"MulVecDistFused/p4-g32", func(b *testing.B) {
			benchMulVecDist(b, false)
		}},
		{"MulVecDistOverlap/p4-g32", func(b *testing.B) {
			benchMulVecDist(b, true)
		}},
		// Solve-service cache hot paths. The hit, miss, and join paths
		// run once per request on the daemon; all three are gated at
		// 0 allocs/op (a cache front that allocates per lookup would cost
		// more than it saves at production request rates).
		{"CacheGetHit/1024x16", func(b *testing.B) {
			c := cache.New[[]byte](1024, 16)
			body := []byte(`{"kind":"scenario","iters":42}`)
			for i := 0; i < 64; i++ {
				c.Put("j1|scenario|-grid 8 -seed "+fmt.Sprint(i), body)
			}
			key := "j1|scenario|-grid 8 -seed 7"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Get(key); !ok {
					b.Fatal("hit path missed")
				}
			}
		}},
		{"CacheGetMiss/1024x16", func(b *testing.B) {
			c := cache.New[[]byte](1024, 16)
			c.Put("resident", []byte("x"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Get("j1|scenario|-grid 9 -seed 12345"); ok {
					b.Fatal("miss path hit")
				}
			}
		}},
		{"SingleflightJoin/serial", func(b *testing.B) {
			g := cache.NewGroup[int]()
			fn := func() (int, error) { return 42, nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v, err, _ := g.Do("k", fn); v != 42 || err != nil {
					b.Fatal("flight failed")
				}
			}
		}},
		{"CanonicalEncode/scenario", func(b *testing.B) {
			req := service.JobRequest{Scenario: "-grid 8 -ranks 4 -scheme CR-M -tol 1e-10 -ckpt 5 -seed 7 -faults SWO@5:r1,SNF@6:r0"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, ok, err := service.CanonicalKey(req)
				if !ok || err != nil || key == "" {
					b.Fatal("bad key")
				}
			}
		}},
		// Telemetry hot paths. A histogram sample lands on every finished
		// job and a span pair wraps every request stage; both are gated at
		// 0 allocs/op so the metrics plane can never perturb the latencies
		// it reports.
		{"HistogramRecord/1", func(b *testing.B) {
			var h telemetry.Histogram
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Record(float64(i&1023) * 1e-4)
			}
		}},
		{"SpanStartEnd/1", func(b *testing.B) {
			tr := telemetry.NewTracer(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := tr.Start("solve", "r-bench-000001")
				sp.End()
			}
		}},
		// ClusterStep is one bidirectional ring halo exchange plus a
		// scalar allreduce per op at p=16 — the communication skeleton of
		// a distributed CG iteration with the numerics stripped out. The
		// "-goroutine" suffix is kept so earlier BENCH files still diff.
		{"ClusterStep/p16-goroutine", func(b *testing.B) {
			benchClusterStep(b, 16)
		}},
		{"CollectiveBarrier/p16-goroutine", func(b *testing.B) {
			benchBarrier(b, 16)
		}},
		// g64 is the ci solve size; g128 (first row) is the stress size.
		{"SpMV/Laplacian2D-64", func(b *testing.B) {
			benchSpMV(b, 64)
		}},
		{"CGIteration/p4-g32", func(b *testing.B) {
			a := resilience.Laplacian2D(32)
			rhs, _ := resilience.RHS(a)
			const ranks = 4
			part := sparse.NewPartition(a.Rows, ranks)
			b.ReportAllocs()
			b.ResetTimer()
			_, err := cluster.Run(ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
				op := solver.NewLocalOp(c, a, part)
				bl := make([]float64, op.N)
				copy(bl, part.Slice(rhs, c.Rank()))
				x := make([]float64, op.N)
				r := make([]float64, op.N)
				p := make([]float64, op.N)
				q := make([]float64, op.N)
				restart := func() float64 {
					vec.Zero(x)
					op.MulVecDist(c, r, x)
					vec.Sub(r, bl, r)
					copy(p, r)
					return c.AllreduceScalarSum(vec.Dot(r, r))
				}
				rho := restart()
				for i := 0; i < b.N; i++ {
					if i%50 == 49 {
						rho = restart()
					}
					op.MulVecDist(c, q, p)
					pq := c.AllreduceScalarSum(vec.Dot(p, q))
					alpha := rho / pq
					vec.Axpy(alpha, p, x)
					rhoNew := c.AllreduceScalarSum(vec.AxpyDot(-alpha, q, r))
					vec.Xpby(r, rhoNew/rho, p)
					rho = rhoNew
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}},
		// FleetCampaign drives the chaos-fleet driver end to end against
		// the in-process oracle: one op is an 8-scenario campaign through
		// generation, sharded verdict evaluation, and counting, so
		// ns/op ÷ 8 is the per-scenario fleet-throughput floor with the
		// transport stripped out (the HTTP path adds codec + router cost
		// on top of this).
		{"FleetCampaign/oracle-n8", func(b *testing.B) {
			opts := fleet.Options{
				Campaign: chaos.Options{N: 8, Seed: 1},
				Batch:    4,
				Workers:  2,
			}
			ev := fleet.NewOracle("", 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Run(context.Background(), opts, ev)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failed > 0 {
					b.Fatalf("benchmark campaign has %d failing scenarios", rep.Failed)
				}
			}
		}},
	}
}

// benchMulVecDist measures the distributed SpMV on the fused or
// overlapped path; both compute bitwise-identical products, so any
// wall-clock gap is pure kernel-dispatch overhead.
func benchMulVecDist(b *testing.B, overlap bool) {
	a := resilience.Laplacian2D(32)
	const ranks = 4
	part := sparse.NewPartition(a.Rows, ranks)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := cluster.Run(ranks, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
		op := solver.NewLocalOp(c, a, part)
		op.SetOverlap(overlap)
		x := make([]float64, op.N)
		y := make([]float64, op.N)
		for i := range x {
			x[i] = float64(i % 13)
		}
		for i := 0; i < b.N; i++ {
			op.MulVecDist(c, y, x)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchSpMV measures one SpMV on a grid×grid 5-point stencil.
func benchSpMV(b *testing.B, grid int) {
	a := resilience.Laplacian2D(grid)
	x, y := make([]float64, a.Rows), make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 31)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

// benchClusterStep drives p ranks through a bidirectional ring exchange
// (8-float payloads) followed by a scalar allreduce.
func benchClusterStep(b *testing.B, p int) {
	b.ReportAllocs()
	b.ResetTimer()
	_, err := cluster.Run(p, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		buf := make([]float64, 8)
		got := make([]float64, 8)
		for i := range buf {
			buf[i] = float64(c.Rank()) + float64(i)/8
		}
		for i := 0; i < b.N; i++ {
			c.Send(next, 1, buf)
			c.RecvInto(prev, 1, got)
			c.Send(prev, 2, buf)
			c.RecvInto(next, 2, got)
			c.AllreduceScalarSum(got[0])
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchBarrier measures one full barrier across p ranks per op.
func benchBarrier(b *testing.B, p int) {
	b.ReportAllocs()
	b.ResetTimer()
	_, err := cluster.Run(p, platform.Default(), power.NewMeter(false), func(c *cluster.Comm) error {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// measureE2E times the fig3 experiment end to end (min of 3 runs) — the
// headline wall-clock number, as opposed to the microbenchmarks' per-op
// costs.
func measureE2E(scale string) map[string]float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := resilience.RunExperiment("fig3", scale); err != nil {
			fmt.Fprintf(os.Stderr, "e2e fig3: %v\n", err)
			return nil
		}
		if d := time.Since(start).Seconds(); best == 0 || d < best {
			best = d
		}
	}
	fmt.Fprintf(os.Stderr, "e2e fig3@%s %8.3fs (min of 3)\n", scale, best)
	return map[string]float64{"goroutine": best}
}

// sink defeats dead-code elimination of pure kernels.
var sink float64

// runSuite executes the matching benchmarks and collects records.
func runSuite(benches []namedBench, filter string) map[string]Record {
	out := make(map[string]Record, len(benches))
	for _, nb := range benches {
		if filter != "" && !strings.Contains(nb.name, filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %-32s ", nb.name)
		r := testing.Benchmark(nb.fn)
		rec := Record{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %8d B/op %6d allocs/op\n",
			rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
		out[nb.name] = rec
	}
	return out
}

func readBaseline(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: unexpected schema %q (want %q)", path, f.Schema, Schema)
	}
	return &f, nil
}

func writeResults(path string, recs map[string]Record, e2e map[string]float64, e2eScale string) error {
	rev, dirty := gitRevision()
	f := File{
		Schema:         Schema,
		CreatedUnix:    time.Now().Unix(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		GitRevision:    rev,
		GitDirty:       dirty,
		E2EFig3Seconds: e2e,
		E2EFig3Scale:   e2eScale,
		Benchmarks:     recs,
	}
	if e2e == nil {
		f.E2EFig3Scale = ""
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	out := flag.String("out", "BENCH_1.json", "write results to this JSON file ('' to skip)")
	baseline := flag.String("baseline", "", "compare against this earlier results file")
	threshold := flag.Float64("threshold", 0.2, "allowed fractional ns/op growth before a regression is flagged")
	toleranceBytes := flag.Int64("tolerance-bytes", 0, "allowed absolute bytes/op growth before a regression is flagged")
	filter := flag.String("filter", "", "only run benchmarks whose name contains this substring")
	scale := flag.String("scale", "tiny", "workload scale for -artifacts runs: tiny, ci or paper")
	artifacts := flag.Bool("artifacts", false, "also benchmark the paper-artifact experiment runners")
	e2e := flag.Bool("e2e", true, "record the fig3 end-to-end wall-clock in the result metadata")
	e2eScale := flag.String("e2e-scale", "ci", "workload scale of the -e2e measurement")
	list := flag.Bool("list", false, "list benchmark names and exit")
	flag.Parse()

	benches := suite(*scale, *artifacts)
	if *list {
		for _, nb := range benches {
			fmt.Println(nb.name)
		}
		return
	}
	if *threshold < 0 {
		fmt.Fprintf(os.Stderr, "-threshold must be >= 0, got %g\n", *threshold)
		os.Exit(2)
	}
	if *toleranceBytes < 0 {
		fmt.Fprintf(os.Stderr, "-tolerance-bytes must be >= 0, got %d\n", *toleranceBytes)
		os.Exit(2)
	}

	// Validate the baseline up front so a bad file fails before the suite
	// spends minutes running.
	var base *File
	if *baseline != "" {
		var err error
		base, err = readBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}

	recs := runSuite(benches, *filter)
	if len(recs) == 0 {
		fmt.Fprintf(os.Stderr, "no benchmarks match filter %q\n", *filter)
		os.Exit(2)
	}
	var e2eSecs map[string]float64
	if *e2e && *out != "" && *filter == "" {
		e2eSecs = measureE2E(*e2eScale)
	}
	if *out != "" {
		if err := writeResults(*out, recs, e2eSecs, *e2eScale); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *out, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(recs))
	}
	if base != nil {
		regs := Diff(base.Benchmarks, recs, *threshold, *toleranceBytes)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "REGRESSION %s: %s\n", r.Name, r.Reason)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "no regressions vs %s (threshold %.0f%%)\n", *baseline, 100**threshold)
	}
}
