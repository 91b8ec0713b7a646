package cluster

import (
	"fmt"
	"iter"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// grainNNZ is the operator size one execution token is worth: a run whose
// ranks apply an operator of nnz nonzeros gets at most ⌈nnz/grainNNZ⌉
// tokens. Below it the ranks wait on each other more than they compute,
// and a second token costs cross-core wake-ups without buying kernel time
// (the sweep behind the value is in DESIGN §12.3).
const grainNNZ = 16384

// spinFor bounds how long a group with no ready rank keeps its core
// while another group runs: about the time an idle core takes to pick up
// a woken goroutine, so a wake that comes within it is handed over on
// this core instead.
const spinFor = 50 * time.Microsecond

// forcedTokens, when positive, replaces the derived token count (capped
// at the rank count). Only tests set it, to run the multi-token path on
// inputs the grain rule gives one token.
var forcedTokens atomic.Int32

// tokens derives a run's token count, W = min(p, the host's cores,
// ⌈nnz/grainNNZ⌉). The count is a property of the input and the host,
// never a setting.
func tokens(p, nnz int) int {
	if f := int(forcedTokens.Load()); f > 0 {
		return min(f, p)
	}
	return min(p, runtime.GOMAXPROCS(0), max(1, (nnz+grainNNZ-1)/grainNNZ))
}

// sched runs one runtime's ranks on W execution tokens. The ranks are
// split into W contiguous groups (halo neighbours mostly share one), and
// each group has one token: a driver goroutine that resumes the group's
// ranks, each a coroutine, one at a time. A rank that must wait records
// what for in its waitRec and yields to its driver, which resumes the
// group's next ready rank. The handover is a coroutine switch on the
// core that runs the group: it goes through no run queue and wakes no
// idle core.
//
// Readiness is event-driven: a post, a halo publish, a collective's last
// arrival, an exit and an abort each end the waits they satisfy (and only
// those), set the woken ranks' ready bits, and hand a woken rank's group
// its token back only if the group is parked. A driver with no ready rank
// spins for up to spinFor while another group runs, then parks: its token
// is free until a wake claims it.
//
// Every event is raised by a token holder, so when the last held token is
// released while ranks are still live, every live rank waits and none can
// ever be woken: the run is deadlocked, and the releaser aborts it with
// each blocked rank and what it waits for named.
type sched struct {
	rt     *Runtime
	groups []group
	recs   []waitRec // indexed by rank

	// mu orders a group's release against a wake that would claim it,
	// and makes the deadlock verdict; a handover takes no lock.
	mu   sync.Mutex
	held atomic.Int32 // groups whose token is held; changed under mu
	live int          // ranks whose function has not returned; under mu
}

// group is one token's share of the ranks, [lo, hi).
type group struct {
	lo, hi int
	// live counts the group's ranks whose function has not returned; only
	// the driver touches it.
	live int
	// free is set while the group is parked: its driver waits on wake
	// until a claim hands the token back.
	free atomic.Bool
	wake chan struct{}
	// ready bit i marks rank lo+i as waiting for the token, not for an
	// event. Wakers set bits; only the token holder clears them.
	ready []atomic.Uint64
	_     [64]byte // keeps one group's hot words off its neighbour's line
}

// waitKind says what a blocked rank waits for.
type waitKind uint32

const (
	waitRecv waitKind = iota + 1 // a message on one (sender, tag) queue
	waitHalo                     // a peer's halo exchange
	waitColl                     // the in-flight collective generation
)

// waitRec is one rank's wait record and its coroutine. The owner fills
// the record, then raises the waiting bit of state; a waker that reads the
// bit and finds the record satisfied ends the wait with a compare-and-swap
// of the word it read. state is seq<<1 | waiting, and the owner bumps seq
// for every wait, so a wake meant for an earlier wait can never end a
// later one.
type waitRec struct {
	state atomic.Uint64
	kind  atomic.Uint32
	peer  atomic.Int32 // recv: the sender; halo: the peer
	at    atomic.Int64 // recv: the tag; halo: the exchange; coll: the generation
	q     atomic.Pointer[msgQueue]
	h     atomic.Pointer[Halo]

	seq   uint64 // the owner's count of its waits
	group *group
	// next resumes the rank's coroutine until it waits or returns, and
	// reports false once it has returned; yield, called inside it, hands
	// control back to the group's driver.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	_     [64]byte
}

func (sc *sched) init(rt *Runtime) {
	sc.rt = rt
	sc.recs = make([]waitRec, rt.p)
}

// run splits the ranks into w groups, makes body(rank) each rank's
// coroutine, and drives the groups until every rank has returned; this
// goroutine drives the first group.
func (sc *sched) run(w int, body func(rank int)) {
	p := sc.rt.p
	sc.groups = make([]group, w)
	sc.live = p
	sc.held.Store(int32(w))
	for i := range sc.groups {
		g := &sc.groups[i]
		g.lo, g.hi = i*p/w, (i+1)*p/w
		g.live = g.hi - g.lo
		g.wake = make(chan struct{}, 1)
		g.ready = make([]atomic.Uint64, (g.hi-g.lo+63)/64)
		for r := g.lo; r < g.hi; r++ {
			rec := &sc.recs[r]
			rec.group = g
			rec.next, _ = iter.Pull(func(yield func(struct{}) bool) {
				rec.yield = yield
				body(r)
			})
			g.set(r)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			sc.drive(g)
		}(&sc.groups[i])
	}
	sc.drive(&sc.groups[0])
	wg.Wait()
}

// drive runs one group's token: it resumes the group's ready ranks one
// at a time, in cyclic rank order, each until it waits or returns. With
// none ready it spins while another group runs, then parks until a wake
// hands the token back. It returns once every rank of the group has.
func (sc *sched) drive(g *group) {
	last := g.hi - 1
	for g.live > 0 {
		r := g.take(last)
		if r < 0 {
			if !sc.spin(g) && sc.release(g) {
				<-g.wake
			}
			continue
		}
		last = r
		if _, ok := sc.recs[r].next(); !ok {
			g.live--
			sc.exit(g)
		}
	}
}

func (g *group) set(rank int) {
	i := rank - g.lo
	orBit(&g.ready[i>>6], 1<<(uint(i)&63))
}

// orBit sets bit in *x.
func orBit(x *atomic.Uint64, bit uint64) {
	for {
		old := x.Load()
		if old&bit != 0 || x.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func (g *group) anyReady() bool {
	for i := range g.ready {
		if g.ready[i].Load() != 0 {
			return true
		}
	}
	return false
}

// take clears and returns the first ready rank after `after` in cyclic
// rank order (after itself last), or -1. Only the token holder calls it.
func (g *group) take(after int) int {
	start := after - g.lo + 1
	if start < 0 || start >= g.hi-g.lo {
		start = 0
	}
	if r := g.takeFrom(start); r >= 0 || start == 0 {
		return r
	}
	return g.takeFrom(0)
}

// takeFrom clears and returns the first ready rank at or after position
// i of the group, or -1.
func (g *group) takeFrom(i int) int {
	for w := i >> 6; w < len(g.ready); w++ {
		word := g.ready[w].Load()
		if w == i>>6 {
			word &^= 1<<(uint(i)&63) - 1
		}
		if word != 0 {
			b := bits.TrailingZeros64(word)
			for bit := uint64(1) << b; ; {
				old := g.ready[w].Load()
				if g.ready[w].CompareAndSwap(old, old&^bit) {
					break
				}
			}
			return g.lo + w<<6 + b
		}
	}
	return -1
}

// begin records what the rank is about to wait for and raises its waiting
// bit; it returns the state word a sleep or a waker ends the wait with.
// The caller re-checks its condition after begin and passes the verdict
// to sleep, so an event raised between its first check and begin, which
// found no waiting bit to clear, is not lost.
func (w *waitRec) begin(kind waitKind, peer int, at int64, q *msgQueue, h *Halo) uint64 {
	w.kind.Store(uint32(kind))
	w.peer.Store(int32(peer))
	w.at.Store(at)
	w.q.Store(q)
	w.h.Store(h)
	w.seq++
	s := w.seq<<1 | 1
	w.state.Store(s)
	return s
}

// waiting returns the rank's state word and whether it is blocked.
func (w *waitRec) waiting() (uint64, bool) {
	s := w.state.Load()
	return s, s&1 != 0
}

// sleep completes a wait begun with begin. If satisfied and no waker has
// ended the wait first, the rank carries on; otherwise it yields to its
// group's driver and returns once the driver resumes it, and the caller
// re-checks its condition.
func (sc *sched) sleep(rank int, s uint64, satisfied bool) {
	w := &sc.recs[rank]
	if satisfied && w.state.CompareAndSwap(s, s&^1) {
		return
	}
	w.yield(struct{}{})
}

// wake ends rank r's wait if it is still the one whose state word s the
// waker read, and makes the rank ready.
func (sc *sched) wake(r int, s uint64) {
	if !sc.recs[r].state.CompareAndSwap(s, s&^1) {
		return
	}
	g := sc.recs[r].group
	g.set(r)
	if g.free.Load() {
		sc.claim(g)
	}
}

// claim hands a parked group its token back, for its driver to resume
// the rank just made ready.
func (sc *sched) claim(g *group) {
	sc.mu.Lock()
	if !g.free.Load() {
		sc.mu.Unlock()
		return
	}
	g.free.Store(false)
	sc.held.Add(1)
	sc.mu.Unlock()
	g.wake <- struct{}{}
}

// spin keeps the group's core for up to spinFor while another group
// runs, yielding between looks, and reports whether a rank of the group
// became ready. With no other group running nothing could wake one.
func (sc *sched) spin(g *group) bool {
	if sc.held.Load() < 2 {
		return false
	}
	deadline := time.Now().Add(spinFor)
	for {
		runtime.Gosched()
		if g.anyReady() {
			return true
		}
		if sc.held.Load() < 2 || time.Now().After(deadline) {
			return false
		}
	}
}

// release parks the group and reports true, unless a rank of it became
// ready meanwhile.
func (sc *sched) release(g *group) bool {
	sc.mu.Lock()
	g.free.Store(true)
	if g.anyReady() {
		g.free.Store(false)
		sc.mu.Unlock()
		return false
	}
	sc.drop()
	return true
}

// drop gives up a held token and unlocks mu, which the caller holds. If
// it was the last held token while ranks are still live, every live rank
// waits and none can ever be woken: drop aborts the run with each blocked
// rank and what it waits for named, and the abort's wakes hand the
// blocked ranks' groups their tokens back.
func (sc *sched) drop() {
	if sc.held.Add(-1) > 0 || sc.live == 0 {
		sc.mu.Unlock()
		return
	}
	err := sc.deadlock()
	sc.mu.Unlock()
	sc.rt.abort(err)
}

// deadlock names every live rank and what it waits for. Called under mu
// with no token held, so no record can change.
func (sc *sched) deadlock() error {
	var b strings.Builder
	for r := range sc.recs {
		if sc.rt.isExited(r) {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		w := &sc.recs[r]
		switch peer, at := w.peer.Load(), w.at.Load(); waitKind(w.kind.Load()) {
		case waitRecv:
			fmt.Fprintf(&b, "rank %d receiving from rank %d (tag %d)", r, peer, at)
		case waitHalo:
			fmt.Fprintf(&b, "rank %d reading rank %d's halo (exchange %d)", r, peer, at)
		case waitColl:
			fmt.Fprintf(&b, "rank %d in collective %d", r, at)
		}
	}
	return fmt.Errorf("cluster: deadlock: every live rank is blocked: %s", b.String())
}

// exit retires a rank whose function returned. When it was the group's
// last, the group's token goes for good.
func (sc *sched) exit(g *group) {
	sc.mu.Lock()
	sc.live--
	if g.live > 0 {
		sc.mu.Unlock()
		return
	}
	sc.drop()
}

// wakeAll ends every wait: the abort path, after which each woken rank
// finds the run aborted.
func (sc *sched) wakeAll() {
	for r := range sc.recs {
		if s, ok := sc.recs[r].waiting(); ok {
			sc.wake(r, s)
		}
	}
}

// wakeExited ends the waits an exited rank can no longer satisfy: a
// receive from it, a read of its halo, and any collective (it can no
// longer arrive). Each woken rank then diagnoses the deadlock itself.
func (sc *sched) wakeExited(rank int) {
	for r := range sc.recs {
		w := &sc.recs[r]
		s, ok := w.waiting()
		if !ok {
			continue
		}
		if k := waitKind(w.kind.Load()); k == waitColl || int(w.peer.Load()) == rank {
			sc.wake(r, s)
		}
	}
}

// wakeColl ends the waits of every rank blocked on the collective
// generation the caller just completed.
func (sc *sched) wakeColl(last int) {
	for r := range sc.recs {
		w := &sc.recs[r]
		if s, ok := w.waiting(); ok && r != last && waitKind(w.kind.Load()) == waitColl {
			sc.wake(r, s)
		}
	}
}
