// Command cgsolve solves one generated SPD system with a chosen recovery
// scheme under injected faults and prints the run report.
//
// Usage:
//
//	cgsolve -matrix Kuu -scale ci -scheme LI-DVFS -ranks 32 -faults 10
//	cgsolve -grid 64 -scheme CR-M -faults 5
//	cgsolve -mm matrix.mtx -scheme RD -mtbf 0.01
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"resilience"
	"resilience/internal/obs"
	"resilience/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cgsolve: ")

	matrix := flag.String("matrix", "", "Table 3 catalog matrix name (see -catalog)")
	scale := flag.String("scale", "ci", "catalog scale: tiny, ci or paper")
	grid := flag.Int("grid", 0, "use a 5-point stencil on a grid x grid mesh instead")
	mm := flag.String("mm", "", "read the matrix from a Matrix Market file instead")
	scheme := flag.String("scheme", "FF", "recovery scheme (see -schemes)")
	ranks := flag.Int("ranks", 16, "simulated MPI processes")
	faults := flag.Int("faults", 0, "evenly spaced fault count")
	mtbf := flag.Float64("mtbf", 0, "Poisson MTBF in virtual seconds (alternative to -faults)")
	tol := flag.Float64("tol", 1e-12, "CG relative residual tolerance")
	ckpt := flag.Int("ckpt", 0, "fixed checkpoint interval in iterations (CR schemes)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	asJSON := flag.Bool("json", false, "emit the run report as JSON")
	traceFile := flag.String("trace", "", "write a per-iteration CSV trace to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline (load in Perfetto) to this file")
	metricsFile := flag.String("metrics", "", "write per-rank counters as CSV to this file ('-' for stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (real time, not virtual) to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	catalog := flag.Bool("catalog", false, "list catalog matrices and exit")
	schemes := flag.Bool("schemes", false, "list schemes and exit")
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

	if *catalog {
		for _, n := range resilience.CatalogNames() {
			fmt.Println(n)
		}
		return
	}
	if *schemes {
		for _, n := range resilience.SchemeNames() {
			fmt.Println(n)
		}
		return
	}

	a, err := loadMatrix(*matrix, *scale, *grid, *mm)
	if err != nil {
		log.Fatal(err)
	}
	b, _ := resilience.RHS(a)
	fmt.Printf("system: %v, %d ranks, scheme %s\n", a, *ranks, *scheme)

	opts := resilience.SolveOptions{
		Scheme:    *scheme,
		Ranks:     *ranks,
		Tol:       *tol,
		Faults:    *faults,
		MTBF:      *mtbf,
		CkptEvery: *ckpt,
		Seed:      *seed,
	}
	var rec *resilience.Recorder
	if *traceFile != "" || *traceOut != "" || *metricsFile != "" {
		rec = resilience.NewRecorder()
		opts.Observer = rec
		// Segments feed the power counter tracks of the timeline export.
		opts.KeepPowerSegments = *traceOut != ""
	}
	rep, err := resilience.Solve(a, b, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut == "" && *metricsFile == "" {
		// The JSON report names the recorder only when -trace-out or
		// -metrics export it; -trace reads nothing but its event log.
		rep.Obs = nil
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, nil, rec, rep.Meter)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline: %d spans on %d ranks written to %s (open in Perfetto)\n",
			rec.SpanCount(), rec.Ranks(), *traceOut)
	}
	if *metricsFile != "" {
		if err := writeFile(*metricsFile, func(w io.Writer) error {
			return obs.WriteMetricsCSV(w, rec.Metrics())
		}); err != nil {
			log.Fatal(err)
		}
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteEventsCSV(f, rec.Events()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %d events written to %s\n", len(rec.Events()), *traceFile)
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, rep); err != nil {
			log.Fatal(err)
		}
	} else {
		printReport(os.Stdout, rep)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
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
	if !rep.Converged {
		pprof.StopCPUProfile()
		os.Exit(2)
	}
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

// writeJSON emits the report without the bulky solution/history vectors.
func writeJSON(w io.Writer, rep *resilience.Report) error {
	slim := *rep
	slim.Solution = nil
	slim.History = nil
	slim.Meter = nil
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&slim)
}

func loadMatrix(name, scale string, grid int, mm string) (*resilience.Matrix, error) {
	switch {
	case mm != "":
		f, err := os.Open(mm)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sparse.ReadMatrixMarket(f)
	case grid > 0:
		return resilience.Laplacian2D(grid), nil
	case name != "":
		return resilience.CatalogMatrix(name, scale)
	default:
		return resilience.Laplacian2D(48), nil
	}
}

func printReport(w io.Writer, rep *resilience.Report) {
	fmt.Fprintf(w, "converged:    %v (relres %.3g)\n", rep.Converged, rep.RelRes)
	fmt.Fprintf(w, "iterations:   %d (restarts %d)\n", rep.Iters, rep.Restarts)
	fmt.Fprintf(w, "time:         %.6g s (virtual)\n", rep.Time)
	fmt.Fprintf(w, "energy:       %.6g J\n", rep.Energy)
	fmt.Fprintf(w, "avg power:    %.6g W (redundancy x%d)\n", rep.AvgPower, rep.Redundancy)
	fmt.Fprintf(w, "seed:         %d\n", rep.Seed)
	if rep.Checkpoints > 0 {
		fmt.Fprintf(w, "checkpoints:  %d\n", rep.Checkpoints)
	}
	if len(rep.Faults) > 0 {
		fmt.Fprintf(w, "faults:       %d\n", len(rep.Faults))
		for _, f := range rep.Faults {
			fmt.Fprintf(w, "  %v\n", f)
		}
	}
	phases := make([]string, 0, len(rep.EnergyByPhase))
	for ph := range rep.EnergyByPhase {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		fmt.Fprintf(w, "energy[%s]: %.6g J\n", ph, rep.EnergyByPhase[ph])
	}
}
