package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"resilience/internal/obs"
)

// inlineVals is the longest reduction whose result lives inside the
// generation slot itself, so reducing it allocates nothing: the CG dot
// products reduce one float64 each.
const inlineVals = 2

// collectiveState implements the one collective the solver needs, a
// generation-counted sum allreduce. A bulk-synchronous program has every
// rank call the same sequence of collectives, so generations align across
// ranks by construction.
type collectiveState struct {
	mu    sync.Mutex
	rt    *Runtime
	p     int
	count int

	// gen is the in-flight generation. It changes under mu, and waiting
	// ranks read it without the lock to see their generation complete.
	gen atomic.Int64

	// contrib is each rank's entry in the in-flight generation.
	contrib []contribution

	// res double-buffers the results by generation parity. Two slots
	// suffice: before any rank can enter generation g+2, every rank must
	// have finished generation g+1, which in turn requires having read
	// generation g's result.
	res [2]collResult
}

// contribution is what one rank brings to a generation: everything the
// rank writes on arrival and the last arriver reads, kept side by side (as
// parallel per-rank arrays the same fields cost the 32-rank allreduce a
// quarter more host time).
type contribution struct {
	// vals views the values to sum: inline[:n] for n <= inlineVals, else
	// the caller's own slice — the caller stays blocked inside enter until
	// the last arriver has summed, so it cannot touch it and no copy of a
	// long vector is taken.
	vals   []float64
	inline [inlineVals]float64
	clock  float64
}

type collResult struct {
	gen    int64
	sum    []float64 // inline[:n] for n <= inlineVals, else a fresh slice
	inline [inlineVals]float64
	tmax   float64
}

func newCollectiveState(p int, rt *Runtime) *collectiveState {
	cs := &collectiveState{
		rt:      rt,
		p:       p,
		contrib: make([]contribution, p),
	}
	cs.res[1].gen = -1 // slot 1 is first written at generation 1
	return cs
}

// enter contributes vals to the current collective and blocks until all
// ranks have arrived. The last arriver sums the contributions element-wise
// in rank order from +0, so every rank reads the same bits whatever order
// the host ran them in. The returned sum is shared by all ranks and
// read-only; one of at most inlineVals values is a view of the generation
// slot and is overwritten two collectives later.
func (cs *collectiveState) enter(rank int, clock float64, vals []float64) (sum []float64, tmax float64) {
	myGen, last := cs.arrive(rank, clock, vals)
	rt := cs.rt
	if last {
		rt.sched.wakeColl(rank)
	} else {
		w := &rt.sched.recs[rank]
		for cs.gen.Load() == myGen && !rt.abortFlag.Load() {
			s := w.begin(waitColl, -1, myGen, nil, nil)
			rt.sched.sleep(rank, s, cs.gen.Load() != myGen || rt.abortFlag.Load())
		}
		if rt.abortFlag.Load() {
			panic(abortPanic{err: fmt.Errorf("cluster: collective on aborted runtime")})
		}
	}
	slot := &cs.res[myGen&1]
	if slot.gen != myGen {
		panic(fmt.Sprintf("cluster: collective slot for gen %d holds gen %d", myGen, slot.gen))
	}
	return slot.sum, slot.tmax
}

// arrive records the rank's contribution to the in-flight generation and
// reports it; the last arriver also sums the generation into its slot and
// opens the next one.
func (cs *collectiveState) arrive(rank int, clock float64, vals []float64) (gen int64, last bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.rt.abortFlag.Load() {
		panic(abortPanic{err: fmt.Errorf("cluster: collective on aborted runtime")})
	}
	gen = cs.gen.Load()
	me := &cs.contrib[rank]
	me.clock, me.vals = clock, vals
	if len(vals) <= inlineVals {
		me.vals = me.inline[:copy(me.inline[:], vals)]
	}
	cs.count++
	if cs.count < cs.p {
		return gen, false
	}
	slot := &cs.res[gen&1]
	n := len(cs.contrib[0].vals)
	if n <= inlineVals {
		slot.sum = slot.inline[:n]
		clear(slot.sum)
	} else {
		slot.sum = make([]float64, n)
	}
	slot.gen, slot.tmax = gen, 0
	for r := range cs.contrib {
		c := &cs.contrib[r]
		if len(c.vals) != n {
			panic(fmt.Sprintf("cluster: allreduce length mismatch: rank %d contributed %d values, rank 0 contributed %d", r, len(c.vals), n))
		}
		for i, x := range c.vals {
			slot.sum[i] += x
		}
		if c.clock > slot.tmax {
			slot.tmax = c.clock
		}
		c.vals = nil
	}
	cs.count = 0
	cs.gen.Store(gen + 1)
	return gen, true
}

// allreduce is the one collective: rendezvous, synchronize the clock to
// the arrival maximum (charged at wait power), then charge the tree cost
// of the contribution's bytes at active power.
func (c *Comm) allreduce(vals []float64) []float64 {
	c.checkAbort()
	sum, tmax := c.rt.coll.enter(c.rank, c.clock, vals)
	c.advanceTo(tmax, obs.SpanWait)
	cost := c.rt.collCost(len(vals))
	if c.obs != nil {
		c.obs.Span(obs.SpanCollective, c.clock, cost)
		c.obs.AddCollective()
	}
	c.ElapseActive(cost)
	return sum
}

// Barrier synchronizes all ranks (clocks included). It is a one-value
// allreduce with a discarded zero contribution, so it allocates nothing
// and costs one 8-byte stage.
func (c *Comm) Barrier() { c.AllreduceScalarSum(0) }

// AllreduceSum element-wise sums vals across ranks. All ranks receive the
// same result (deterministic rank-order summation), which stays valid for
// the rest of the run and is read-only: for more than inlineVals values it
// is one slice shared by every rank. vals is not modified.
func (c *Comm) AllreduceSum(vals []float64) []float64 {
	sum := c.allreduce(vals)
	if len(sum) <= inlineVals {
		sum = append([]float64(nil), sum...) // the slot is reused two collectives on
	}
	return sum
}

// AllreduceScalarSum is AllreduceSum for one value (the CG dot products)
// and allocates nothing.
func (c *Comm) AllreduceScalarSum(v float64) float64 {
	c.scratch[0] = v
	return c.allreduce(c.scratch[:1])[0]
}
