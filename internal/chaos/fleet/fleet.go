// Package fleet shards seeded chaos campaigns across the distributed
// solve service. A campaign of N scenarios (10^5–10^6 at production
// scale; bounded in CI) is partitioned into contiguous index batches,
// each batch is evaluated as one set of verdict-bearing jobs — over HTTP
// against a resilience-router fronting resilienced replicas, or against
// the in-process oracle — and the per-scenario invariant verdicts stream
// back. Any violation is then shrunk server-side: the greedy shrinker's
// candidate passes are themselves batches of jobs, so minimization
// parallelizes across the same fleet that found the failure.
//
// The whole pipeline is byte-deterministic. Scenario i is derived from
// the campaign seed alone (chaos.ScenarioAt), verdicts are recorded at
// their scenario index regardless of arrival order, and the shrinker
// accepts the first failing candidate in candidate order of a fully
// evaluated pass — so the same campaign seed produces an identical
// verdict stream, failure set, and shrunk minimal scenarios whether it
// ran against one replica, a dozen, or the oracle. The e2e tests
// byte-compare all three.
package fleet

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"resilience/internal/chaos"
)

// Evaluator turns scenarios into encoded verdict lines (chaos.Verdict
// wire form), one per scenario, in input order. Implementations must be
// pure: the verdict for a scenario depends on the scenario alone, never
// on the batch it arrived in. Client (HTTP) and Oracle (in-process) are
// the two implementations, and the determinism contract is that they
// agree byte-for-byte.
type Evaluator interface {
	Evaluate(ctx context.Context, scenarios []*chaos.Scenario) ([]string, error)
}

// checkBreak rejects a self-test hook that names no invariant. Both
// evaluators call it before touching a scenario, so `-break gravity` is
// the same error in-process and over HTTP (where every job would
// otherwise come back 400).
func checkBreak(name string) error {
	if name == "" || slices.Contains(chaos.InvariantNames(), name) {
		return nil
	}
	return fmt.Errorf("fleet: -break %q is not an invariant (known: %s)",
		name, strings.Join(chaos.InvariantNames(), ", "))
}

// Options configures one fleet campaign.
type Options struct {
	// Campaign is the underlying seeded campaign: N scenarios generated
	// from Seed via chaos.ScenarioAt, with the generator's MaxFaults,
	// Schemes, and Tol knobs. The -break self-test hook is the
	// evaluator's, not the campaign's: NewOracle and NewClient take it.
	Campaign chaos.Options

	// Batch is the scenarios per evaluator call (<=0: 64). Over HTTP one
	// batch is one POST /batch.
	Batch int
	// Workers is how many batches are in flight at once (<=0: 4).
	Workers int

	// ShrinkBudget caps candidate evaluations per shrunk failure
	// (<=0: 400). Each greedy pass evaluates its whole candidate list as
	// one batch.
	ShrinkBudget int
	// MaxShrinks caps how many failures are shrunk, lowest campaign
	// index first (<=0: 3). Campaigns with a systematically broken
	// invariant fail everywhere; shrinking every failure would be both
	// slow and redundant.
	MaxShrinks int

	// Progress, when set, is called after each completed batch with the
	// number of scenarios evaluated so far and the campaign total.
	Progress func(done, total int)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Batch <= 0 {
		out.Batch = 64
	}
	if out.Workers <= 0 {
		out.Workers = 4
	}
	if out.ShrinkBudget <= 0 {
		out.ShrinkBudget = 400
	}
	if out.MaxShrinks <= 0 {
		out.MaxShrinks = 3
	}
	return out
}

// Shrunk is one server-side-minimized failure.
type Shrunk struct {
	Index   int    // campaign index of the original failing scenario
	Args    string // minimal failing scenario's canonical replay string
	Verdict string // encoded verdict of the minimal scenario
	Evals   int    // candidate evaluations the shrink spent
}

// Report is a completed fleet campaign.
type Report struct {
	N int
	// Lines holds the encoded verdict of scenario i at index i — the
	// campaign's canonical byte stream (see WriteVerdicts).
	Lines []string
	// Verdicts are the parsed counterparts of Lines.
	Verdicts []*chaos.Verdict

	OK, Expected, Failed int
	// Failures lists the failing scenario indices, ascending.
	Failures []int
	// Shrunk holds the minimized failures, in Failures order, at most
	// MaxShrinks of them.
	Shrunk []Shrunk

	// Evaluations counts every scenario sent to the evaluator, campaign
	// and shrink passes together.
	Evaluations int
}

// Run drives one campaign through ev. The returned report is
// byte-deterministic in the campaign options: evaluator transport, batch
// size, worker count, and arrival order cannot change a single byte of
// Lines, Failures, or Shrunk (they can change Evaluations only through
// ShrinkBudget truncation, which is itself deterministic).
func Run(ctx context.Context, opts Options, ev Evaluator) (*Report, error) {
	o := opts.withDefaults()
	n := o.Campaign.N
	if n <= 0 {
		return nil, fmt.Errorf("fleet: campaign N must be positive, got %d", n)
	}

	lines := make([]string, n)
	type span struct{ lo, hi int }
	work := make(chan span)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	done := 0
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range work {
				if failed() || ctx.Err() != nil {
					continue
				}
				scen := make([]*chaos.Scenario, sp.hi-sp.lo)
				for i := range scen {
					scen[i] = chaos.ScenarioAt(o.Campaign, sp.lo+i)
				}
				out, err := ev.Evaluate(ctx, scen)
				if err != nil {
					fail(fmt.Errorf("fleet: batch [%d,%d): %w", sp.lo, sp.hi, err))
					continue
				}
				if len(out) != len(scen) {
					fail(fmt.Errorf("fleet: batch [%d,%d): evaluator returned %d verdicts for %d scenarios",
						sp.lo, sp.hi, len(out), len(scen)))
					continue
				}
				copy(lines[sp.lo:sp.hi], out)
				mu.Lock()
				done += len(scen)
				d := done
				mu.Unlock()
				if o.Progress != nil {
					o.Progress(d, n)
				}
			}
		}()
	}
	for lo := 0; lo < n; lo += o.Batch {
		hi := lo + o.Batch
		if hi > n {
			hi = n
		}
		work <- span{lo, hi}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{N: n, Lines: lines, Verdicts: make([]*chaos.Verdict, n), Evaluations: n}
	for i, line := range lines {
		v, err := chaos.ParseVerdict(line)
		if err != nil {
			return nil, fmt.Errorf("fleet: scenario %d verdict: %w", i, err)
		}
		rep.Verdicts[i] = v
		switch v.Status {
		case chaos.StatusOK:
			rep.OK++
		case chaos.StatusExpected:
			rep.Expected++
		default:
			rep.Failed++
			rep.Failures = append(rep.Failures, i)
		}
	}

	for _, idx := range rep.Failures {
		if len(rep.Shrunk) >= o.MaxShrinks {
			break
		}
		sh, err := shrinkOne(ctx, ev, chaos.ScenarioAt(o.Campaign, idx), lines[idx], o.ShrinkBudget)
		if err != nil {
			return nil, fmt.Errorf("fleet: shrinking scenario %d: %w", idx, err)
		}
		sh.Index = idx
		rep.Shrunk = append(rep.Shrunk, sh)
		rep.Evaluations += sh.Evals
	}
	return rep, nil
}

// shrinkOne greedily minimizes one failing scenario through the
// evaluator. Each pass evaluates the full valid candidate list of
// chaos.ShrinkCandidates as ONE batch and accepts the first failing
// candidate in candidate order — a deterministic rule whatever the
// evaluator's internal parallelism, which is what lets 1-replica,
// 3-replica, and oracle runs agree on the minimal scenario byte-for-byte.
// The result is 1-minimal with respect to the candidate moves — no single
// move keeps it failing — unless the budget ran out first, which truncates
// the last pass at the same candidate everywhere.
func shrinkOne(ctx context.Context, ev Evaluator, s *chaos.Scenario, verdict string, budget int) (Shrunk, error) {
	cur, curLine := s, verdict
	evals := 0
	for {
		var cands []*chaos.Scenario
		for _, c := range chaos.ShrinkCandidates(cur) {
			if c.Validate() == nil {
				cands = append(cands, c)
			}
		}
		if len(cands) > budget-evals {
			cands = cands[:budget-evals]
		}
		if len(cands) == 0 {
			break
		}
		out, err := ev.Evaluate(ctx, cands)
		if err != nil {
			return Shrunk{}, err
		}
		if len(out) != len(cands) {
			return Shrunk{}, fmt.Errorf("evaluator returned %d verdicts for %d candidates", len(out), len(cands))
		}
		evals += len(cands)
		improved := false
		for j, line := range out {
			v, err := chaos.ParseVerdict(line)
			if err != nil {
				return Shrunk{}, err
			}
			if v.Status == chaos.StatusFail {
				cur, curLine = cands[j], line
				improved = true
				break
			}
		}
		if !improved || evals >= budget {
			break
		}
	}
	return Shrunk{Args: cur.Args(), Verdict: curLine, Evals: evals}, nil
}

// WriteVerdicts renders the campaign's canonical verdict stream: one
// "#<index><TAB><verdict>" line per scenario in index order. Two
// campaigns are byte-equal on this stream exactly when every scenario
// ran bitwise-identically and was classified the same way — the artifact
// the fleet determinism gates cmp(1).
func WriteVerdicts(w io.Writer, lines []string) error {
	for i, l := range lines {
		if _, err := fmt.Fprintf(w, "#%06d\t%s\n", i, l); err != nil {
			return err
		}
	}
	return nil
}
