// Package cluster is the message-passing substrate that stands in for MPI
// (offline substitution: no MPI implementation is practical here). Ranks
// are goroutines exchanging data through per-rank inboxes and tree-modeled
// collectives, exactly as a block-row CG would over MPI.
//
// Time is virtual. Every rank owns a clock that advances by modeled costs:
//
//	compute:        flops / rate(freq)
//	point-to-point: alpha + bytes/bandwidth  (LogGP-style)
//	collectives:    ceil(log2 P) * (alpha + bytes/bandwidth)
//
// and synchronizes at collectives to the participants' maximum. This is
// the standard conservative network simulation (cf. SimGrid/SMPI) and is
// what lets the repository report time-to-solution and energy-to-solution
// without the paper's physical testbed.
//
// Power: every clock advance is recorded into a power.Meter with the
// per-core wattage implied by the core's frequency and activity. While a
// rank waits (for a message or at a collective) it is charged busy-wait
// power by default, matching MPI's polling progress engines — the paper
// relies on this to explain why plain LI only drops node power to ~0.75×.
// Recovery code switches waiting ranks to idle/sleep accounting (and
// optionally a lower frequency) through SetWaitIdle and SetFreq.
//
// Host scheduling is not an input. The ranks are coroutines run on W
// execution tokens (sched.go): W is derived from the operator's nonzero
// count and the host's cores, each token is one driver
// goroutine that runs one rank of its group at a time, and a rank that
// must wait yields to its driver, which resumes a ready rank of the group.
// Clocks, energy, traces and solutions are derived from virtual time and
// rank-ordered reductions, never from W or from the order the host
// happens to run the ranks in.
//
// Contract: a rank body blocks only through this package's primitives
// (Recv, RecvInto, Halo.Recv and the collectives), and does not call
// runtime.Goexit. A body that blocks on anything else — a channel, a
// lock, another goroutine — keeps its group's token, and the group's
// other ranks cannot run until it returns.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"resilience/internal/obs"
	"resilience/internal/platform"
	"resilience/internal/power"
)

// Runtime couples P ranks to a platform and a meter for one parallel run.
// It is single-use: the abort state, the halo plans and any messages left
// queued describe that one run, so build a new Runtime per Run. A second
// Run returns an error without starting any rank.
type Runtime struct {
	p     int
	plat  *platform.Platform
	meter *power.Meter
	rec   *obs.Recorder

	coll    *collectiveState
	inboxes []inbox // indexed by receiving rank
	sched   sched

	// collN[n] is the tree cost of allreducing n <= inlineVals values (the
	// dot products), fixed by the platform and p.
	collN [inlineVals + 1]float64

	// nnz is the nonzero count of the operator the ranks apply, which
	// sizes the run's execution tokens; 0 when unknown (one token).
	nnz int

	// halos[k*p+r] is rank r's k-th halo plan, registered by NewHalo for
	// its peers to find; set up once per operator, so a mutex guards it.
	halosMu sync.Mutex
	halos   []*Halo

	// started is set by the first Run; see the single-use note above.
	started atomic.Bool

	// abortFlag is the hot-path view of "has any rank failed": checkAbort
	// runs before every operation, so it reads one atomic instead of
	// serializing all ranks on abortMu. The mutex still orders the error.
	abortFlag atomic.Bool
	abortMu   sync.Mutex
	abortErr  error
}

// abortPanic is the sentinel carried by panics raised when the run has
// been aborted by another rank's failure.
type abortPanic struct{ err error }

// NewRuntime builds a runtime for p ranks applying an operator of nnz
// nonzeros (0 if there is none or it is unknown). nnz only sizes how many
// cores the host lends the run; nothing the run reports depends on it.
//
// plat is read-only for the runtime's life: the costs and powers the
// ranks charge are derived from it once, when the runtime, a rank's Comm,
// a halo plan or a frequency change is set up, not on every event.
func NewRuntime(p, nnz int, plat *platform.Platform, meter *power.Meter) *Runtime {
	if p <= 0 {
		panic(fmt.Sprintf("cluster: invalid rank count %d", p))
	}
	rt := &Runtime{p: p, nnz: nnz, plat: plat, meter: meter}
	for n := range rt.collN {
		rt.collN[n] = plat.CollectiveTime(int64(8*n), p)
	}
	// Size the meter's per-core table before any rank takes its core's
	// handle (core id = rank).
	meter.Reserve(p)
	rt.coll = newCollectiveState(p, rt)
	rt.inboxes = newInboxes(p)
	rt.sched.init(rt)
	return rt
}

// collCost returns the tree cost of allreducing n values.
func (rt *Runtime) collCost(n int) float64 {
	if n <= inlineVals {
		return rt.collN[n]
	}
	return rt.plat.CollectiveTime(int64(8*n), rt.p)
}

// SetRecorder attaches an observability recorder before Run: every rank's
// Comm then records spans and counters against its surface. Recording is
// pure — it reads the virtual clocks but never advances one — so runs are
// byte-identical with or without a recorder. Must be called before Run.
func (rt *Runtime) SetRecorder(rec *obs.Recorder) { rt.rec = rec }

// abort records the first failure and unblocks every waiting rank. The
// first abort of a run also lands in the process flight recorder, so a
// stall-protocol trip or deadlock detection inside a service job shows
// up in the same timeline as the request that carried it.
func (rt *Runtime) abort(err error) {
	rt.abortMu.Lock()
	first := rt.abortErr == nil
	if first {
		rt.abortErr = err
		rt.abortFlag.Store(true)
	}
	rt.abortMu.Unlock()
	if first {
		obs.DefaultFlight().Note("cluster-abort", "", err.Error())
	}
	// Every woken rank reads abortFlag, raised above.
	rt.sched.wakeAll()
}

func (rt *Runtime) aborted() error {
	if !rt.abortFlag.Load() {
		return nil
	}
	rt.abortMu.Lock()
	defer rt.abortMu.Unlock()
	return rt.abortErr
}

// Run executes fn on every rank and waits for completion. The first
// error (or converted panic) aborts all ranks and is returned. MaxClock
// afterwards holds the final virtual time. The ranks apply no operator
// the runtime knows of, so they share one execution token.
func Run(p int, plat *platform.Platform, meter *power.Meter, fn func(c *Comm) error) (maxClock float64, err error) {
	rt := NewRuntime(p, 0, plat, meter)
	return rt.Run(fn)
}

// Run executes fn on every rank of this runtime. It may be called once
// per Runtime.
func (rt *Runtime) Run(fn func(c *Comm) error) (maxClock float64, err error) {
	if !rt.started.CompareAndSwap(false, true) {
		return 0, errors.New("cluster: Runtime.Run called twice: a Runtime is single-use, build a new one for each run")
	}
	clocks := make([]float64, rt.p)
	errs := make([]error, rt.p)
	body := func(rank int) {
		c := newComm(rank, rt)
		defer func() {
			clocks[rank] = c.clock
			if rec := recover(); rec != nil {
				if ap, ok := rec.(abortPanic); ok {
					errs[rank] = ap.err
				} else {
					err := fmt.Errorf("cluster: rank %d panicked: %v", rank, rec)
					errs[rank] = err
					rt.abort(err)
				}
			}
		}()
		if e := fn(c); e != nil {
			errs[rank] = e
			rt.abort(e)
		}
	}
	rt.sched.run(tokens(rt.p, rt.nnz), body)
	for _, c := range clocks {
		if c > maxClock {
			maxClock = c
		}
	}
	if aerr := rt.aborted(); aerr != nil {
		return maxClock, aerr
	}
	for _, e := range errs {
		if e != nil {
			return maxClock, e
		}
	}
	return maxClock, nil
}
