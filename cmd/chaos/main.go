// Command chaos runs deterministic fault-campaigns against the resilient
// solver and checks the runtime invariant battery on every scenario.
//
// A campaign is the fleet driver (internal/chaos/fleet) over its
// in-process oracle — the campaign chaos-fleet shards across a live
// fabric, here with the rerun-based invariants on — so it is fully
// determined by its flags: the same -n/-seed/-schemes produce
// byte-identical output at any -workers. Scenario lines are verdicts in
// wire form. When a scenario violates an invariant, the driver shrinks the
// first failure and prints the minimal failing scenario as a flag string
// replayable with -replay.
//
//	chaos -n 200 -seed 1                  # the acceptance campaign
//	chaos -replay '-grid 8 -ranks 4 -scheme LI -tol 1e-10 -seed 7 -faults SNF@5:r2'
//	chaos -n 50 -seed 1 -break convergence  # prove the reporter end-to-end
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
)

func main() {
	var (
		n         = flag.Int("n", 200, "number of scenarios")
		seed      = flag.Int64("seed", 1, "campaign seed (scenario i derives seed+i*stride)")
		workers   = flag.Int("workers", 4, "concurrent scenario runners")
		maxFaults = flag.Int("max-faults", 3, "faults per scenario drawn from 0..k")
		schemes   = flag.String("schemes", strings.Join(chaos.DefaultSchemes(), ","), "comma-separated scheme pool")
		tol       = flag.Float64("tol", 1e-10, "solver tolerance")
		recheck   = flag.Bool("recheck", true, "rerun each scenario for the determinism and overlap-equivalence invariants")
		breakInv  = flag.String("break", "", "deliberately fail this invariant on faulted scenarios (checker self-test); one of: "+strings.Join(chaos.InvariantNames(), ", "))
		replay    = flag.String("replay", "", "run a single scenario from its replay flag string instead of a campaign")
		verbose   = flag.Bool("v", false, "print every scenario line, not only failures")
	)
	flag.Parse()
	if err := run(*n, *seed, *workers, *maxFaults, *schemes, *tol, *recheck, *breakInv, *replay, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(n int, seed int64, workers, maxFaults int, schemes string, tol float64, recheck bool, breakInv, replay string, verbose bool) error {
	runner := chaos.NewRunner(chaos.Options{Recheck: recheck})
	if replay != "" {
		if breakInv != "" {
			return fmt.Errorf("chaos: -break applies to a campaign, not to -replay")
		}
		return runReplay(replay, runner)
	}

	fmt.Printf("chaos campaign: n=%d seed=%d schemes=%s max-faults=%d tol=%g recheck=%t\n",
		n, seed, schemes, maxFaults, tol, recheck)
	// One batch in flight, evaluated by `workers` concurrent scenario
	// runs: the campaign and every shrink pass get the same parallelism.
	oracle := fleet.NewOracle(breakInv, workers)
	oracle.Runner = runner
	rep, err := fleet.Run(context.Background(), fleet.Options{
		Campaign: chaos.Options{
			N:         n,
			Seed:      seed,
			MaxFaults: maxFaults,
			Schemes:   strings.Split(schemes, ","),
			Tol:       tol,
		},
		Workers:    1,
		MaxShrinks: 1,
	}, oracle)
	if err != nil {
		return err
	}
	for i, v := range rep.Verdicts {
		failed := v.Status == chaos.StatusFail
		if verbose || failed {
			fmt.Printf("#%04d %s\n", i, rep.Lines[i])
			if failed {
				fmt.Printf("      replay: %s\n", v.Args)
			}
		}
	}
	fmt.Printf("summary: %d scenarios, %d ok, %d expected-failure, %d violating\n",
		rep.N, rep.OK, rep.Expected, rep.Failed)
	for _, sh := range rep.Shrunk {
		fmt.Printf("minimal failing scenario (shrunk from #%04d):\n", sh.Index)
		fmt.Printf("  %s\n", sh.Verdict)
		fmt.Printf("  replay: go run ./cmd/chaos -replay '%s'\n", sh.Args)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("chaos: %d of %d scenarios violated invariants", rep.Failed, rep.N)
	}
	return nil
}

// runReplay executes one scenario verbosely.
func runReplay(args string, runner *chaos.Runner) error {
	s, err := chaos.ParseArgs(args)
	if err != nil {
		return err
	}
	r := runner.Run(0, s)
	fmt.Println(r.Line())
	if rep := r.Report; rep != nil {
		fmt.Printf("  scheme=%s iters=%d converged=%t relres=%.3g restarts=%d faults-fired=%d\n",
			rep.Scheme, rep.Iters, rep.Converged, rep.RelRes, rep.Restarts, len(rep.Faults))
		fmt.Printf("  time=%.6gs energy=%.6gJ avg-power=%.6gW checkpoints=%d\n",
			rep.Time, rep.Energy, rep.AvgPower, rep.Checkpoints)
	}
	if r.Failed() {
		return fmt.Errorf("chaos: scenario violated invariants")
	}
	return nil
}
