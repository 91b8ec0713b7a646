// Command resilience-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	resilience-bench -exp fig5 -scale ci
//	resilience-bench -exp all -scale ci -csv out/
//	resilience-bench -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"resilience"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resilience-bench: ")

	exp := flag.String("exp", "all", "experiment id (fig1..fig9, tab3..tab6, ablation-*) or 'all'")
	scale := flag.String("scale", "ci", "workload scale: tiny, ci or paper")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	workers := flag.Int("workers", 0, "experiment-engine worker count (0: GOMAXPROCS; 1: sequential)")
	seed := flag.Int64("seed", 0, "fault-injection seed (0: the default seed behind the checked-in tables)")
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
			resilience.ExperimentOptions{Workers: *workers, Seed: *seed})
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
