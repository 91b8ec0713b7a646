package cluster

import (
	"fmt"
	"sync"

	"resilience/internal/obs"
)

// collectiveState implements generation-counted collectives. A bulk-
// synchronous program has every rank call the same sequence of
// collectives, so generations align across ranks by construction.
type collectiveState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	rt      *Runtime
	p       int
	gen     int64
	count   int
	clocks  []float64
	contrib []any
	results map[int64]*collResult
	dead    bool

	// arrived marks the ranks that have contributed to the in-flight
	// generation; it feeds the deadlock check (a rank that exited without
	// arriving can never arrive, so the collective can never complete).
	arrived []bool

	// Scalar fast path: the CG dot products reduce one or two float64s
	// per collective, so they bypass the boxed `any` machinery entirely.
	// scontrib holds up to two values per rank; sres double-buffers the
	// combined results. Two slots suffice: before any rank can enter
	// generation g+2, every rank must have finished generation g+1, which
	// in turn requires having read generation g's result.
	scontrib []float64
	sres     [2]scalarResult
}

type collResult struct {
	value     any
	tmax      float64
	remaining int
}

type scalarResult struct {
	gen    int64
	v0, v1 float64
	tmax   float64
}

func newCollectiveState(p int, rt *Runtime) *collectiveState {
	cs := &collectiveState{
		rt:       rt,
		p:        p,
		clocks:   make([]float64, p),
		contrib:  make([]any, p),
		results:  make(map[int64]*collResult),
		scontrib: make([]float64, 2*p),
		arrived:  make([]bool, p),
	}
	cs.sres[1].gen = -1 // slot 1 is first written at generation 1
	cs.cond = sync.NewCond(&cs.mu)
	return cs
}

// checkStuck reports (and aborts on) a deadlocked collective: a rank that
// has not contributed to the in-flight generation but whose function has
// already exited can never arrive, so the waiters would block forever.
// Called with the state locked; it temporarily releases the lock to abort
// the runtime (abort re-acquires it) and reports true so the caller
// re-checks cs.dead instead of going to sleep past its own wake-up.
func (cs *collectiveState) checkStuck(rank int) bool {
	var missing []int
	for r := 0; r < cs.p; r++ {
		if cs.rt.isExited(r) && !cs.arrived[r] {
			missing = append(missing, r)
		}
	}
	if len(missing) == 0 {
		return false
	}
	err := fmt.Errorf("cluster: deadlock: rank %d blocked in a collective that rank(s) %v exited without joining (mismatched collective participation)", rank, missing)
	cs.mu.Unlock()
	cs.rt.abort(err)
	cs.mu.Lock()
	return true
}

func (cs *collectiveState) abort() {
	cs.mu.Lock()
	cs.dead = true
	cs.mu.Unlock()
	cs.cond.Broadcast()
}

// enter contributes to the current collective and blocks until all ranks
// have arrived. combine is evaluated exactly once, by the last arriver,
// over the contributions in rank order. It may retain contribution values
// but must not retain the slice itself (it is the shared scratch buffer).
// The returned value is shared by all ranks and must be treated as
// read-only.
func (cs *collectiveState) enter(rank int, clock float64, contribution any,
	combine func(all []any) any) (value any, tmax float64) {

	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.dead {
		panic(abortPanic{err: fmt.Errorf("cluster: collective on aborted runtime")})
	}
	myGen := cs.gen
	cs.clocks[rank] = clock
	cs.contrib[rank] = contribution
	cs.arrived[rank] = true
	cs.count++
	if cs.count == cs.p {
		var t float64
		for _, cl := range cs.clocks {
			if cl > t {
				t = cl
			}
		}
		cs.results[myGen] = &collResult{value: combine(cs.contrib), tmax: t, remaining: cs.p}
		for i := range cs.contrib {
			cs.contrib[i] = nil
			cs.arrived[i] = false
		}
		cs.count = 0
		cs.gen++
		cs.cond.Broadcast()
	} else {
		for cs.gen == myGen && !cs.dead {
			if cs.checkStuck(rank) {
				continue // our own abort set cs.dead; re-evaluate, don't sleep
			}
			cs.cond.Wait()
		}
		if cs.dead {
			panic(abortPanic{err: fmt.Errorf("cluster: collective on aborted runtime")})
		}
	}
	res := cs.results[myGen]
	res.remaining--
	if res.remaining == 0 {
		delete(cs.results, myGen)
	}
	return res.value, res.tmax
}

// enterScalar is the allocation-free twin of enter for collectives that
// reduce one or two float64 values. It shares the generation counter with
// the boxed path, so scalar and vector collectives can interleave freely.
// Summation runs in rank order, bitwise-identical to AllreduceSum.
func (cs *collectiveState) enterScalar(rank int, clock, v0, v1 float64) (r0, r1, tmax float64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.dead {
		panic(abortPanic{err: fmt.Errorf("cluster: collective on aborted runtime")})
	}
	myGen := cs.gen
	cs.clocks[rank] = clock
	cs.scontrib[2*rank] = v0
	cs.scontrib[2*rank+1] = v1
	cs.arrived[rank] = true
	cs.count++
	if cs.count == cs.p {
		var t float64
		for _, cl := range cs.clocks {
			if cl > t {
				t = cl
			}
		}
		var s0, s1 float64
		for r := 0; r < cs.p; r++ {
			s0 += cs.scontrib[2*r]
			s1 += cs.scontrib[2*r+1]
		}
		slot := &cs.sres[myGen&1]
		slot.gen, slot.v0, slot.v1, slot.tmax = myGen, s0, s1, t
		for i := range cs.arrived {
			cs.arrived[i] = false
		}
		cs.count = 0
		cs.gen++
		cs.cond.Broadcast()
	} else {
		for cs.gen == myGen && !cs.dead {
			if cs.checkStuck(rank) {
				continue // our own abort set cs.dead; re-evaluate, don't sleep
			}
			cs.cond.Wait()
		}
		if cs.dead {
			panic(abortPanic{err: fmt.Errorf("cluster: collective on aborted runtime")})
		}
	}
	slot := &cs.sres[myGen&1]
	if slot.gen != myGen {
		panic(fmt.Sprintf("cluster: scalar collective slot for gen %d holds gen %d", myGen, slot.gen))
	}
	return slot.v0, slot.v1, slot.tmax
}

// collect is the shared driver: synchronize clocks to the arrival maximum
// (charged at wait power) and then charge the tree cost at active power.
func (c *Comm) collect(bytesPerStage int64, contribution any, combine func(all []any) any) any {
	c.checkAbort()
	value, tmax := c.rt.coll.enter(c.rank, c.clock, contribution, combine)
	c.advanceTo(tmax, obs.SpanWait)
	cost := c.rt.plat.CollectiveTime(bytesPerStage, c.rt.p)
	if c.obs != nil {
		c.obs.Span(obs.SpanCollective, c.clock, cost)
		c.obs.AddCollective()
	}
	c.ElapseActive(cost)
	return value
}

// Barrier synchronizes all ranks (clocks included). It rides the
// allocation-free scalar collective path with a discarded zero
// contribution; the modeled cost is the same 8-byte stage the boxed path
// charged, so virtual times are unchanged.
func (c *Comm) Barrier() {
	c.checkAbort()
	_, _, tmax := c.rt.coll.enterScalar(c.rank, c.clock, 0, 0)
	c.advanceTo(tmax, obs.SpanWait)
	cost := c.rt.plat.CollectiveTime(8, c.rt.p)
	if c.obs != nil {
		c.obs.Span(obs.SpanCollective, c.clock, cost)
		c.obs.AddCollective()
	}
	c.ElapseActive(cost)
}

// AllreduceSum element-wise sums vals across ranks. All ranks receive the
// same result (deterministic rank-order summation). vals is not modified.
func (c *Comm) AllreduceSum(vals []float64) []float64 {
	in := make([]float64, len(vals))
	copy(in, vals)
	out := c.collect(int64(8*len(vals)), in, func(all []any) any {
		sum := make([]float64, len(vals))
		for _, a := range all {
			v := a.([]float64)
			if len(v) != len(sum) {
				panic(fmt.Sprintf("cluster: AllreduceSum length mismatch %d vs %d", len(v), len(sum)))
			}
			for i, x := range v {
				sum[i] += x
			}
		}
		return sum
	})
	return out.([]float64)
}

// AllreduceScalarSum is AllreduceSum for one value (the CG dot products).
// It takes the allocation-free scalar fast path; the cost model and the
// rank-order summation are identical to AllreduceSum([]float64{v})[0].
func (c *Comm) AllreduceScalarSum(v float64) float64 {
	c.checkAbort()
	r0, _, tmax := c.rt.coll.enterScalar(c.rank, c.clock, v, 0)
	c.advanceTo(tmax, obs.SpanWait)
	cost := c.rt.plat.CollectiveTime(8, c.rt.p)
	if c.obs != nil {
		c.obs.Span(obs.SpanCollective, c.clock, cost)
		c.obs.AddCollective()
	}
	c.ElapseActive(cost)
	return r0
}

// AllreduceSum2 sums two scalars across ranks in one fused collective.
// Results and virtual-time cost are bitwise-identical to
// AllreduceSum([]float64{a, b}), without the per-call allocations.
func (c *Comm) AllreduceSum2(a, b float64) (float64, float64) {
	c.checkAbort()
	r0, r1, tmax := c.rt.coll.enterScalar(c.rank, c.clock, a, b)
	c.advanceTo(tmax, obs.SpanWait)
	cost := c.rt.plat.CollectiveTime(16, c.rt.p)
	if c.obs != nil {
		c.obs.Span(obs.SpanCollective, c.clock, cost)
		c.obs.AddCollective()
	}
	c.ElapseActive(cost)
	return r0, r1
}

// AllreduceMax element-wise maximizes vals across ranks.
func (c *Comm) AllreduceMax(vals []float64) []float64 {
	in := make([]float64, len(vals))
	copy(in, vals)
	out := c.collect(int64(8*len(vals)), in, func(all []any) any {
		m := make([]float64, len(vals))
		copy(m, all[0].([]float64))
		for _, a := range all[1:] {
			for i, x := range a.([]float64) {
				if x > m[i] {
					m[i] = x
				}
			}
		}
		return m
	})
	return out.([]float64)
}

// Bcast broadcasts root's data to all ranks; every rank receives a fresh
// copy. Non-root callers pass their (ignored) input, which may be nil.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	var in []float64
	if c.rank == root {
		in = make([]float64, len(data))
		copy(in, data)
	}
	out := c.collect(int64(8*len(data)), in, func(all []any) any {
		if all[root] == nil {
			panic(fmt.Sprintf("cluster: Bcast root %d contributed nil", root))
		}
		return all[root]
	})
	shared := out.([]float64)
	res := make([]float64, len(shared))
	copy(res, shared)
	return res
}

// BcastInt broadcasts one integer from root (used for control decisions
// such as "a fault occurred on rank r at iteration k").
func (c *Comm) BcastInt(root int, v int) int {
	res := c.Bcast(root, []float64{float64(v)})
	return int(res[0])
}

// AllgatherV concatenates per-rank variable-length blocks; every rank
// receives all blocks indexed by rank. Blocks are copied.
func (c *Comm) AllgatherV(block []float64) [][]float64 {
	in := make([]float64, len(block))
	copy(in, block)
	// Payload estimate: total gathered bytes dominate a ring/tree
	// allgather; use the per-rank block size per stage.
	out := c.collect(int64(8*len(block)), in, func(all []any) any {
		blocks := make([][]float64, len(all))
		for i, a := range all {
			if a == nil {
				blocks[i] = nil
				continue
			}
			blocks[i] = a.([]float64)
		}
		return blocks
	})
	shared := out.([][]float64)
	res := make([][]float64, len(shared))
	for i, b := range shared {
		res[i] = make([]float64, len(b))
		copy(res[i], b)
	}
	return res
}

// Reduce sums vals across ranks; only root receives the result (others
// get nil). Cost-modeled like Allreduce's tree without the broadcast
// half, i.e. the same ceil(log2 P) stages.
func (c *Comm) Reduce(root int, vals []float64) []float64 {
	in := make([]float64, len(vals))
	copy(in, vals)
	out := c.collect(int64(8*len(vals)), in, func(all []any) any {
		sum := make([]float64, len(vals))
		for _, a := range all {
			for i, x := range a.([]float64) {
				sum[i] += x
			}
		}
		return sum
	})
	if c.rank != root {
		return nil
	}
	shared := out.([]float64)
	res := make([]float64, len(shared))
	copy(res, shared)
	return res
}

// Gather collects fixed-size blocks on root (nil elsewhere).
func (c *Comm) Gather(root int, block []float64) [][]float64 {
	in := make([]float64, len(block))
	copy(in, block)
	out := c.collect(int64(8*len(block)), in, func(all []any) any {
		blocks := make([][]float64, len(all))
		for i, a := range all {
			blocks[i] = a.([]float64)
		}
		return blocks
	})
	if c.rank != root {
		return nil
	}
	shared := out.([][]float64)
	res := make([][]float64, len(shared))
	for i, b := range shared {
		res[i] = make([]float64, len(b))
		copy(res[i], b)
	}
	return res
}

// Scatter distributes root's per-rank blocks; every rank receives its own
// copy. Non-root callers pass nil.
func (c *Comm) Scatter(root int, blocks [][]float64) []float64 {
	var in any
	if c.rank == root {
		cp := make([][]float64, len(blocks))
		for i, b := range blocks {
			cp[i] = append([]float64(nil), b...)
		}
		in = cp
	}
	var stage int64 = 8
	if c.rank == root && len(blocks) > 0 {
		stage = int64(8 * len(blocks[0]))
	}
	out := c.collect(stage, in, func(all []any) any {
		if all[root] == nil {
			panic(fmt.Sprintf("cluster: Scatter root %d contributed nil", root))
		}
		return all[root]
	})
	shared := out.([][]float64)
	if c.rank >= len(shared) {
		panic(fmt.Sprintf("cluster: Scatter root provided %d blocks for %d ranks", len(shared), c.rt.p))
	}
	res := make([]float64, len(shared[c.rank]))
	copy(res, shared[c.rank])
	return res
}
