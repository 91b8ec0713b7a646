package cluster

import (
	"fmt"
	"math/bits"
)

// coopSched steps all P ranks of one runtime as run-to-block coroutines.
// Exactly one rank goroutine is ever runnable: ownership of the single
// scheduling token is handed from rank to rank through per-rank
// capacity-1 channels, so the channel operations provide the
// happens-before edges that make the shared collective and inbox state
// race-free without any mutex. A rank executes until it must block — a
// receive with an empty queue, a collective it is not the last arriver
// of — then parks and hands the token to the next runnable rank in
// cyclic rank order.
//
// Readiness is event-driven, not polled: posting a message marks exactly
// the rank parked on that queue runnable (the same inbox.waitQ test that
// decides the goroutine mode's cond.Signal), and completing a collective
// generation marks exactly its parked waiters runnable, where the
// goroutine mode broadcasts to all of them. Runnability is a bitmask
// scan, O(1) per 64 ranks.
//
// Determinism: results never depend on the resume order in the first
// place — reductions combine in rank order and all costs are virtual
// time — so the cooperative mode is byte-identical to the goroutine
// oracle by construction. What the fixed rank-order scan adds is a
// *reproducible wall-clock execution order*, which makes
// scheduler-level failures (stalls, deadlocks) deterministic too.
type coopSched struct {
	rt *Runtime
	p  int

	// resume[r] carries the scheduling token to rank r. Capacity 1 and a
	// single token in existence mean sends never block.
	resume []chan struct{}

	// runnable marks ranks that may be handed the token; parked marks
	// ranks blocked inside a primitive (the force-wake and abort sets);
	// collWait marks the subset parked on the in-flight collective
	// generation. Which queue a mail-parked rank needs is its inbox's
	// waitQ.
	runnable rankMask
	parked   rankMask
	collWait rankMask

	nLive int
	done  chan struct{}

	// progress counts scheduler-visible events (messages posted,
	// collective generations completed, rank exits). The stall protocol
	// compares it across no-runnable-rank episodes: the first stall
	// force-wakes every parked rank so each runs its own deadlock
	// diagnostics; a second stall with no progress in between means
	// nothing can ever run again and the run is aborted.
	progress      uint64
	stallProgress uint64
}

// rankMask is a bitset over ranks.
type rankMask []uint64

func newRankMask(p int) rankMask { return make(rankMask, (p+63)/64) }

func (m rankMask) set(r int)      { m[r>>6] |= 1 << (uint(r) & 63) }
func (m rankMask) clear(r int)    { m[r>>6] &^= 1 << (uint(r) & 63) }
func (m rankMask) has(r int) bool { return m[r>>6]&(1<<(uint(r)&63)) != 0 }

// or folds src into m and zeroes src.
func (m rankMask) or(src rankMask) {
	for i, w := range src {
		m[i] |= w
		src[i] = 0
	}
}

func (m rankMask) reset() {
	for i := range m {
		m[i] = 0
	}
}

// next returns the first set bit at or after start, or -1.
func (m rankMask) next(start int) int {
	if start < 0 {
		start = 0
	}
	w := start >> 6
	if w >= len(m) {
		return -1
	}
	word := m[w] &^ (1<<(uint(start)&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(m) {
			return -1
		}
		word = m[w]
	}
}

func newCoopSched(rt *Runtime) *coopSched {
	s := &coopSched{
		rt:       rt,
		p:        rt.p,
		resume:   make([]chan struct{}, rt.p),
		runnable: newRankMask(rt.p),
		parked:   newRankMask(rt.p),
		collWait: newRankMask(rt.p),
	}
	for r := range s.resume {
		s.resume[r] = make(chan struct{}, 1)
	}
	return s
}

// run executes body(rank) for every rank to completion, one rank at a
// time. Rank 0 is stepped first; thereafter the token follows the
// rank-order scan in transfer.
func (s *coopSched) run(body func(rank int)) {
	s.nLive = s.p
	s.done = make(chan struct{})
	s.progress = 0
	s.stallProgress = ^uint64(0) // first stall always force-wakes
	s.parked.reset()
	s.collWait.reset()
	for r := 0; r < s.p; r++ {
		s.runnable.set(r)
	}
	for r := 0; r < s.p; r++ {
		go func(rank int) {
			<-s.resume[rank]
			body(rank)
			s.exit(rank)
		}(r)
	}
	s.runnable.clear(0)
	s.resume[0] <- struct{}{}
	<-s.done
}

// noteProgress records a scheduler-visible state change. Called only by
// the rank holding the token (or by run before the first handoff), so a
// plain increment is race-free.
func (s *coopSched) noteProgress() { s.progress++ }

// wakeMail notes a message posted to rank `to` and marks that rank
// runnable iff it is parked on the queue the message joined.
func (s *coopSched) wakeMail(to int, parked bool) {
	s.progress++
	if parked {
		s.runnable.set(to)
	}
}

// wakeColl marks every rank parked on the just-completed collective
// generation runnable. All of them were waiting on exactly that
// generation (no rank can enter generation g+1 before every rank has
// finished g), so no wake is spurious.
func (s *coopSched) wakeColl() {
	s.progress++
	s.runnable.or(s.collWait)
}

// wakeAll marks every parked rank runnable: the abort path (all wait
// loops re-check the dead flag) and the stall protocol's forced
// diagnostic round.
func (s *coopSched) wakeAll() {
	s.progress++
	for i, w := range s.parked {
		s.runnable[i] |= w
	}
}

// transfer hands the token to the next runnable rank after `from` in
// cyclic rank order. Reports false when no rank is runnable.
func (s *coopSched) transfer(from int) bool {
	r := s.runnable.next(from + 1)
	if r < 0 {
		r = s.runnable.next(0)
	}
	if r < 0 {
		return false
	}
	s.runnable.clear(r)
	s.parked.clear(r)
	s.collWait.clear(r)
	s.resume[r] <- struct{}{}
	return true
}

// handoff releases the token on behalf of a rank that just parked or
// exited. If no rank is runnable the stall protocol runs: a force-wake
// round lets every parked rank execute its own deadlock checks (exited
// senders, mismatched collectives) and produce the same diagnostics as
// the goroutine runtime; if a full forced round yields no progress the
// scheduler aborts the run itself.
func (s *coopSched) handoff(from int) {
	if s.transfer(from) {
		return
	}
	if s.progress != s.stallProgress {
		stamp := s.progress
		s.wakeAll() // increments progress; remember the pre-wake stamp
		s.stallProgress = stamp + 1
		if s.transfer(from) {
			return
		}
	}
	// A forced round changed nothing: nothing can ever run again.
	s.rt.abort(fmt.Errorf("cluster: deadlock: all %d live ranks blocked with no runnable peer", s.nLive))
	if s.transfer(from) {
		return
	}
	panic("cluster: cooperative scheduler stalled after abort")
}

// parkColl parks the calling rank until the collective generation it
// contributed to completes (or the runtime dies), running other ranks
// meanwhile.
func (s *coopSched) parkColl(rank int) {
	s.parked.set(rank)
	s.collWait.set(rank)
	s.handoff(rank)
	<-s.resume[rank]
}

// parkMail parks the calling rank until a message is queued on its
// inbox's waitQ (or the runtime dies), running other ranks meanwhile.
func (s *coopSched) parkMail(rank int) {
	s.parked.set(rank)
	s.handoff(rank)
	<-s.resume[rank]
}

// exit retires a finished rank and passes the token on (or completes the
// run when it was the last one).
func (s *coopSched) exit(rank int) {
	s.nLive--
	if s.nLive == 0 {
		close(s.done)
		return
	}
	s.handoff(rank)
}
