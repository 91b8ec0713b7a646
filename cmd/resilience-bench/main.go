// Command resilience-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	resilience-bench -exp fig5 -scale ci
//	resilience-bench -exp all -scale ci -csv out/
//	resilience-bench -trace-out run.json -scale ci   (timeline of one traced solve)
//	resilience-bench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"resilience"
	"resilience/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resilience-bench: ")

	exp := flag.String("exp", "all", "experiment id (fig1..fig9, tab3..tab6, ablation-*) or 'all'")
	scale := flag.String("scale", "ci", "workload scale: tiny, ci or paper")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	workers := flag.Int("workers", 0, "experiment-engine worker count (0: GOMAXPROCS; 1: sequential)")
	overlap := flag.Bool("overlap", false, "overlap halo exchange with interior SpMV in every distributed solve")
	observe := flag.Bool("observe", false, "attach a discarded observability recorder to every cell solve (purity exercise; output is byte-identical)")
	seed := flag.Int64("seed", 0, "fault-injection seed for experiments and the traced solve (0: the default seed behind the checked-in tables)")
	traceOut := flag.String("trace-out", "", "instead of experiments, run one traced solve and write its Chrome trace-event JSON timeline (load in Perfetto) to this file")
	metricsFile := flag.String("metrics", "", "with the traced solve, write per-rank counters as CSV to this file ('-' for stdout)")
	traceScheme := flag.String("trace-scheme", "LI-DVFS", "recovery scheme of the traced solve")
	traceMatrix := flag.String("trace-matrix", "Kuu", "catalog matrix of the traced solve")
	traceRanks := flag.Int("trace-ranks", 32, "rank count of the traced solve")
	traceFaults := flag.Int("trace-faults", 3, "injected fault count of the traced solve")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (real time, not virtual) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	if *list {
		for _, r := range resilience.Experiments() {
			fmt.Printf("%-18s %s\n", r.ID, r.Title)
		}
		return
	}

	if *traceOut != "" || *metricsFile != "" {
		if err := tracedRun(*traceMatrix, *scale, *traceScheme, *traceRanks,
			*traceFaults, *overlap, *seed, *traceOut, *metricsFile); err != nil {
			log.Fatal(err)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, r := range resilience.Experiments() {
			ids = append(ids, r.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	failed := 0
	for _, id := range ids {
		start := time.Now()
		res, err := resilience.RunExperimentOpts(strings.TrimSpace(id), *scale,
			resilience.ExperimentOptions{Workers: *workers, Overlap: *overlap, Observe: *observe, Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %.1fs, seed %d)\n\n", id, time.Since(start).Seconds(), res.Seed)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "writing CSV for %s: %v\n", id, err)
				failed++
			}
		}
	}
	if failed > 0 {
		writeMemProfile(*memprofile)
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

// tracedRun executes one fully observed resilient solve and exports its
// timeline and/or per-rank metrics — the zero-setup path from "which rank
// waited where" to a Perfetto tab.
func tracedRun(matrix, scale, scheme string, ranks, faults int, overlap bool,
	seed int64, traceOut, metricsFile string) error {

	a, err := resilience.CatalogMatrix(matrix, scale)
	if err != nil {
		return err
	}
	b, _ := resilience.RHS(a)
	rec := resilience.NewRecorder()
	rep, err := resilience.Solve(a, b, resilience.SolveOptions{
		Scheme:            scheme,
		Ranks:             ranks,
		Faults:            faults,
		Overlap:           overlap,
		Seed:              seed,
		Observer:          rec,
		KeepPowerSegments: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("traced solve: %s on %s (%v), %d ranks, %d faults, seed %d: %d iters, %.6g s, %.6g J\n",
		rep.Scheme, matrix, a, ranks, len(rep.Faults), rep.Seed, rep.Iters, rep.Time, rep.Energy)
	if traceOut != "" {
		if err := writeFile(traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, nil, rec, rep.Meter)
		}); err != nil {
			return err
		}
		fmt.Printf("timeline: %d spans on %d ranks written to %s (open in Perfetto)\n",
			rec.SpanCount(), rec.Ranks(), traceOut)
	}
	if metricsFile != "" {
		if err := writeFile(metricsFile, func(w io.Writer) error {
			return obs.WriteMetricsCSV(w, rec.Metrics())
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeFile runs emit against the named file, with "-" meaning stdout.
func writeFile(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func writeCSVs(dir string, res *resilience.ExperimentResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables {
		name := fmt.Sprintf("%s_%d.csv", res.ID, i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
