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
// Two modes run in process only. -recheck (with -oracle) adds the
// rerun-based determinism invariant to every scenario; -replay runs the
// one scenario a flag string names and prints its report, the way a
// shrunk failure's replay line does (with -break, if the campaign had it,
// so a self-test violation replays too).
//
//	chaos-fleet -addr http://127.0.0.1:8910 -n 2000 -seed 1
//	chaos-fleet -oracle -n 2000 -seed 1 -corpus-out internal/chaos/testdata/corpus/distilled.txt
//	chaos-fleet -oracle -recheck -n 200 -seed 1
//	chaos-fleet -replay '-grid 8 -ranks 4 -scheme LI -tol 1e-10 -seed 7 -faults SNF@5:r2'
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
	"slices"
	"strings"
	"time"

	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8910", "resilience-router or resilienced base URL")
		oracle    = fs.Bool("oracle", false, "evaluate in-process instead of over HTTP (the determinism ground truth)")
		recheck   = fs.Bool("recheck", false, "with -oracle or -replay, rerun each scenario for the determinism invariant")
		replay    = fs.String("replay", "", "run the single scenario this flag string names, in process, instead of a campaign")
		n         = fs.Int("n", 2000, "number of scenarios")
		seed      = fs.Int64("seed", 1, "campaign seed (scenario i derives seed+i*stride)")
		maxFaults = fs.Int("max-faults", 3, "faults per scenario drawn from 0..k")
		schemes   = fs.String("schemes", strings.Join(chaos.DefaultSchemes(), ","), "comma-separated scheme pool")
		batch     = fs.Int("batch", 64, "scenarios per fleet batch")
		c         = fs.Int("c", 4, "batches in flight at once")
		breakInv  = fs.String("break", "", "deliberately fail this invariant on faulted scenarios (fleet self-test); one of: "+strings.Join(chaos.InvariantNames(), ", "))
		budget    = fs.Int("shrink-budget", 400, "candidate evaluations per shrunk failure")
		corpusOut = fs.String("corpus-out", "", "write the distilled scenario corpus to this file ('-': stdout)")
		verdicts  = fs.String("verdicts-out", "", "write the indexed verdict stream to this file ('-': stdout)")
		verbose   = fs.Bool("v", false, "print per-batch progress")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "chaos-fleet:", msg)
		return 2
	}
	addrSet := false
	fs.Visit(func(f *flag.Flag) { addrSet = addrSet || f.Name == "addr" })
	if (*recheck || *replay != "") && addrSet {
		return usage("-recheck and -replay run in process; they do not take -addr")
	}
	if *recheck && !*oracle && *replay == "" {
		return usage("-recheck needs -oracle or -replay")
	}
	if *replay != "" {
		if *breakInv != "" && !slices.Contains(chaos.InvariantNames(), *breakInv) {
			return usage(fmt.Sprintf("-break %q is not an invariant", *breakInv))
		}
		return runReplay(*replay, *breakInv, chaos.NewRunner(chaos.Options{Recheck: *recheck}), stdout, stderr)
	}

	opts := fleet.Options{
		Campaign: chaos.Options{
			N:         *n,
			Seed:      *seed,
			MaxFaults: *maxFaults,
			Schemes:   strings.Split(*schemes, ","),
		},
		Batch:        *batch,
		Workers:      *c,
		ShrinkBudget: *budget,
	}
	if *verbose {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "chaos-fleet: %d/%d scenarios\n", done, total)
		}
	}

	var ev fleet.Evaluator
	if *oracle {
		o := fleet.NewOracle(*breakInv, runtime.GOMAXPROCS(0))
		if *recheck {
			o.Runner = chaos.NewRunner(chaos.Options{Recheck: true})
		}
		ev = o
	} else {
		ev = fleet.NewClient(*addr, *breakInv)
	}

	start := time.Now()
	rep, err := fleet.Run(context.Background(), opts, ev)
	if err != nil {
		fmt.Fprintln(stderr, "chaos-fleet:", err)
		return 2
	}
	elapsed := time.Since(start).Seconds()

	if *verdicts != "" {
		if err := writeTo(*verdicts, stdout, func(w io.Writer) error {
			return fleet.WriteVerdicts(w, rep.Lines)
		}); err != nil {
			fmt.Fprintln(stderr, "chaos-fleet:", err)
			return 2
		}
	}
	if *corpusOut != "" {
		entries, err := fleet.Distill(opts.Campaign, rep.Lines)
		if err == nil {
			err = writeTo(*corpusOut, stdout, func(w io.Writer) error {
				return chaos.WriteCorpus(w, entries)
			})
		}
		if err != nil {
			fmt.Fprintln(stderr, "chaos-fleet:", err)
			return 2
		}
		fmt.Fprintf(stdout, "chaos-fleet: distilled %d corpus scenarios\n", len(entries))
	}

	mode := "fleet " + *addr
	if *oracle {
		mode = "oracle"
	}
	fmt.Fprintf(stdout, "chaos-fleet: %d scenarios via %s: %d ok, %d expected-failure, %d FAILED; %d evaluations, %.0f scenarios/s\n",
		rep.N, mode, rep.OK, rep.Expected, rep.Failed, rep.Evaluations, float64(rep.N)/elapsed)
	replayBreak := ""
	if *breakInv != "" {
		replayBreak = " -break " + *breakInv
	}
	for _, sh := range rep.Shrunk {
		fmt.Fprintf(stdout, "minimal failing scenario (shrunk from #%d in %d evaluations):\n  %s\n  replay: go run ./cmd/chaos-fleet -replay '%s'%s\n  verdict: %s\n",
			sh.Index, sh.Evals, sh.Args, sh.Args, replayBreak, sh.Verdict)
	}
	if rep.Failed > 0 {
		fmt.Fprintf(stderr, "chaos-fleet: %d of %d scenarios violated invariants\n", rep.Failed, rep.N)
		return 1
	}
	return 0
}

// runReplay executes one scenario verbosely. A non-empty breakInv is
// applied as the campaign's evaluators apply it: to faulted scenarios.
func runReplay(args, breakInv string, runner *chaos.Runner, stdout, stderr io.Writer) int {
	s, err := chaos.ParseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "chaos-fleet:", err)
		return 2
	}
	r := runner.Run(0, s)
	r.Break(breakInv)
	fmt.Fprintln(stdout, r.Line())
	if rep := r.Report; rep != nil {
		fmt.Fprintf(stdout, "  scheme=%s iters=%d converged=%t relres=%.3g restarts=%d faults-fired=%d\n",
			rep.Scheme, rep.Iters, rep.Converged, rep.RelRes, rep.Restarts, len(rep.Faults))
		fmt.Fprintf(stdout, "  time=%.6gs energy=%.6gJ avg-power=%.6gW checkpoints=%d\n",
			rep.Time, rep.Energy, rep.AvgPower, rep.Checkpoints)
	}
	fmt.Fprintf(stdout, "  verdict: %s\n", chaos.VerdictOf(r).Encode())
	if r.Failed() {
		fmt.Fprintln(stderr, "chaos-fleet: scenario violated invariants")
		return 1
	}
	return 0
}

// writeTo writes through f to path, with "-" meaning stdout.
func writeTo(path string, stdout io.Writer, f func(io.Writer) error) error {
	if path == "-" {
		return f(stdout)
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
