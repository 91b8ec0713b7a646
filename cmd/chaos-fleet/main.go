// Command chaos-fleet shards a seeded chaos campaign across the solve
// service and distills the results. Scenarios are generated from the
// campaign seed (scenario i = chaos.ScenarioAt(seed, i)), batched into
// verdict-bearing jobs against a resilience-router (or a bare
// resilienced, or the in-process oracle with -oracle), and every
// invariant verdict streams back. Violations are shrunk server-side —
// the greedy shrinker's candidate passes are themselves fleet batches —
// and the "interesting" scenarios are distilled into the fuzz corpus.
//
// The campaign is byte-deterministic: the same -seed/-n produce the
// identical verdict stream, failure set, and minimal shrunk scenarios
// for any replica count, batch size, or concurrency, and identically for
// -oracle. scripts/check.sh cmp(1)s exactly that.
//
//	chaos-fleet -addr http://127.0.0.1:8910 -n 2000 -seed 1
//	chaos-fleet -oracle -n 2000 -seed 1 -corpus-out internal/chaos/testdata/corpus/distilled.txt
//	chaos-fleet -addr http://127.0.0.1:8910 -n 500 -break convergence -verdicts-out fleet.out
//
// Exit status: 0 when every scenario is ok or a classified expected
// failure; 1 when any invariant was violated (the minimal shrunk
// scenario and its replay line are printed); 2 on transport or usage
// errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8910", "resilience-router or resilienced base URL")
		oracle    = flag.Bool("oracle", false, "evaluate in-process instead of over HTTP (the determinism ground truth)")
		n         = flag.Int("n", 2000, "number of scenarios")
		seed      = flag.Int64("seed", 1, "campaign seed (scenario i derives seed+i*stride)")
		maxFaults = flag.Int("max-faults", 3, "faults per scenario drawn from 0..k")
		schemes   = flag.String("schemes", strings.Join(chaos.DefaultSchemes(), ","), "comma-separated scheme pool")
		tol       = flag.Float64("tol", 1e-10, "solver tolerance")
		batch     = flag.Int("batch", 64, "scenarios per fleet batch")
		c         = flag.Int("c", 4, "batches in flight at once")
		breakInv  = flag.String("break", "", "deliberately fail this invariant on faulted scenarios (fleet self-test); one of: "+strings.Join(chaos.InvariantNames(), ", "))
		budget    = flag.Int("shrink-budget", 400, "candidate evaluations per shrunk failure")
		corpusOut = flag.String("corpus-out", "", "write the distilled scenario corpus to this file ('-': stdout)")
		verdicts  = flag.String("verdicts-out", "", "write the indexed verdict stream to this file ('-': stdout)")
		verbose   = flag.Bool("v", false, "print per-batch progress")
	)
	flag.Parse()

	opts := fleet.Options{
		Campaign: chaos.Options{
			N:         *n,
			Seed:      *seed,
			MaxFaults: *maxFaults,
			Schemes:   strings.Split(*schemes, ","),
			Tol:       *tol,
		},
		Batch:        *batch,
		Workers:      *c,
		ShrinkBudget: *budget,
	}
	if *verbose {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "chaos-fleet: %d/%d scenarios\n", done, total)
		}
	}

	var ev fleet.Evaluator
	if *oracle {
		ev = fleet.NewOracle(*breakInv, runtime.GOMAXPROCS(0))
	} else {
		ev = fleet.NewClient(*addr, *breakInv)
	}

	start := time.Now()
	rep, err := fleet.Run(context.Background(), opts, ev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos-fleet:", err)
		os.Exit(2)
	}
	elapsed := time.Since(start).Seconds()

	if *verdicts != "" {
		if err := writeTo(*verdicts, func(w io.Writer) error {
			return fleet.WriteVerdicts(w, rep.Lines)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "chaos-fleet:", err)
			os.Exit(2)
		}
	}
	if *corpusOut != "" {
		entries, err := fleet.Distill(opts.Campaign, rep.Lines)
		if err == nil {
			err = writeTo(*corpusOut, func(w io.Writer) error {
				return chaos.WriteCorpus(w, entries)
			})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos-fleet:", err)
			os.Exit(2)
		}
		fmt.Printf("chaos-fleet: distilled %d corpus scenarios\n", len(entries))
	}

	mode := "fleet " + *addr
	if *oracle {
		mode = "oracle"
	}
	fmt.Printf("chaos-fleet: %d scenarios via %s: %d ok, %d expected-failure, %d FAILED; %d evaluations, %.0f scenarios/s\n",
		rep.N, mode, rep.OK, rep.Expected, rep.Failed, rep.Evaluations, float64(rep.N)/elapsed)
	for _, sh := range rep.Shrunk {
		fmt.Printf("minimal failing scenario (shrunk from #%d in %d evaluations):\n  %s\n  replay: go run ./cmd/chaos -replay %q\n  verdict: %s\n",
			sh.Index, sh.Evals, sh.Args, sh.Args, sh.Verdict)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

// writeTo writes through f to path, with "-" meaning stdout.
func writeTo(path string, f func(io.Writer) error) error {
	if path == "-" {
		return f(os.Stdout)
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
