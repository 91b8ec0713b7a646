package cluster

import (
	"fmt"
	"sync"

	"resilience/internal/obs"
)

// inbox is one rank's receiving side of point-to-point messaging: every
// message addressed to the rank is queued here, on the FIFO of its
// (sender, tag) channel. The tagged path serves one-time setup (a
// solver's need lists) and tests; the per-iteration halo exchange goes
// through Halo plans instead. Each inbox has its own lock, so a post
// contends only with other traffic to the same receiver. A receiver that
// finds its queue empty records the queue in its wait record under that
// lock and hands its token on; a post reads the record under the same
// lock and wakes the receiver only when it waits on that very queue.
type inbox struct {
	mu sync.Mutex

	// from[s] holds sender s's queues, one per tag seen on the channel.
	// A channel carries a handful of tags at most, so finding one is an
	// index and a short scan.
	from [][]*msgQueue
}

// msgQueue is one (from, to, tag) channel's FIFO. It lives behind a
// pointer so a receiver waiting on it is not disturbed when another tag
// first appears on the same channel.
type msgQueue struct {
	tag  int
	msgs []message

	// free holds payload buffers the receiver has copied out of, for the
	// sender's next posts: a steady-state exchange allocates nothing.
	free [][]float64
}

type message struct {
	data   []float64
	arrive float64 // virtual arrival time at the receiver
}

// newInboxes builds the p inboxes of one runtime in two allocations, so
// starting a small runtime per job stays cheap.
func newInboxes(p int) []inbox {
	inboxes := make([]inbox, p)
	channels := make([][]*msgQueue, p*p)
	for r := range inboxes {
		inboxes[r].from = channels[r*p : (r+1)*p : (r+1)*p]
	}
	return inboxes
}

// queue returns (creating if needed) the FIFO for messages from rank
// `from` with the given tag. Callers must hold the inbox locked.
func (ib *inbox) queue(from, tag int) *msgQueue {
	for _, q := range ib.from[from] {
		if q.tag == tag {
			return q
		}
	}
	q := &msgQueue{tag: tag}
	ib.from[from] = append(ib.from[from], q)
	return q
}

// buffer returns a payload buffer of length n, recycled when the free
// list has one large enough.
func (q *msgQueue) buffer(n int) []float64 {
	if k := len(q.free); k > 0 {
		buf := q.free[k-1]
		q.free[k-1] = nil
		q.free = q.free[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// pop removes the oldest message. It shifts the queue down in place
// instead of re-slicing from the front, keeping the backing array
// anchored so a sender running several exchanges ahead of its receiver
// never forces the queue to reallocate on append.
func (q *msgQueue) pop() message {
	msg := q.msgs[0]
	n := copy(q.msgs, q.msgs[1:])
	q.msgs[n] = message{}
	q.msgs = q.msgs[:n]
	return msg
}

// Send transmits a copy of data to rank `to` with the given tag. The
// sender's clock advances by the injection cost; the message carries its
// modeled arrival time.
//
// Aliasing contract: Send copies data into an internal buffer before
// returning, so the caller may immediately reuse or overwrite data;
// TestSendCopiesPayload pins it.
func (c *Comm) Send(to, tag int, data []float64) {
	c.checkAbort()
	if to < 0 || to >= c.rt.p {
		panic(fmt.Sprintf("cluster: Send to invalid rank %d", to))
	}
	c.post(to, tag, data, c.inject(len(data), c.rt.plat.P2PTime(int64(8*len(data)))))
}

// inject charges a blocking send of n values that takes cost seconds to
// inject: the sender is occupied at active power for the injection, which
// ends at the returned clock, the message's arrival time.
func (c *Comm) inject(n int, cost float64) float64 {
	bytes := int64(8 * n)
	if c.obs != nil {
		c.obs.Span(obs.SpanSend, c.clock, cost)
		c.obs.AddSend(bytes)
	}
	c.ElapseActive(cost)
	return c.clock
}

// post copies data into a buffer of the (rank→to, tag) queue and
// enqueues it with the given arrival time, waking the receiver iff it
// waits on that queue.
func (c *Comm) post(to, tag int, data []float64, arrive float64) {
	ib := &c.rt.inboxes[to]
	w := &c.rt.sched.recs[to]
	ib.mu.Lock()
	q := ib.queue(c.rank, tag)
	buf := q.buffer(len(data))
	copy(buf, data)
	q.msgs = append(q.msgs, message{data: buf, arrive: arrive})
	s, waiting := w.waiting()
	waiting = waiting && waitKind(w.kind.Load()) == waitRecv && w.q.Load() == q
	ib.mu.Unlock()
	if waiting {
		c.rt.sched.wake(to, s)
	}
}

// await blocks until a message is queued on (from→rank, tag) and returns
// the rank's inbox, locked, with that non-empty queue.
func (c *Comm) await(from, tag int) (*inbox, *msgQueue) {
	if from < 0 || from >= c.rt.p {
		panic(fmt.Sprintf("cluster: Recv from invalid rank %d", from))
	}
	rt := c.rt
	ib := &rt.inboxes[c.rank]
	ib.mu.Lock()
	q := ib.queue(from, tag)
	for len(q.msgs) == 0 && !rt.abortFlag.Load() {
		// Recorded under the inbox lock, so a post either came before
		// the check above or finds the record.
		s := rt.sched.recs[c.rank].begin(waitRecv, from, int64(tag), q, nil)
		ib.mu.Unlock()
		rt.sched.sleep(c.rank, s, rt.abortFlag.Load())
		ib.mu.Lock()
	}
	if rt.abortFlag.Load() {
		ib.mu.Unlock()
		panic(abortPanic{err: fmt.Errorf("cluster: recv on aborted runtime")})
	}
	return ib, q
}

// arrived advances the virtual clock to a received message's arrival
// time (charged at wait power) and counts its n values.
func (c *Comm) arrived(arrive float64, n int) {
	c.advanceTo(arrive, obs.SpanRecv)
	if c.obs != nil {
		c.obs.AddRecv(int64(8 * n))
	}
}

// Recv blocks until a message from rank `from` with the given tag is
// available, advances the virtual clock to its arrival time (charged at
// wait power), and returns the payload as a fresh slice.
func (c *Comm) Recv(from, tag int) []float64 {
	c.checkAbort()
	ib, q := c.await(from, tag)
	msg := q.pop()
	ib.mu.Unlock()
	c.arrived(msg.arrive, len(msg.data))
	// The queue's buffer itself: nothing else references it once popped.
	// Capacity is clipped because a recycled buffer may be longer.
	return msg.data[:len(msg.data):len(msg.data)]
}

// RecvInto is Recv without the allocation: the payload is copied into
// dst, which must match the message length exactly, and the internal
// buffer is recycled. The copy and the buffer's return to the queue's
// free list happen under the inbox lock the dequeue already holds.
func (c *Comm) RecvInto(from, tag int, dst []float64) {
	c.checkAbort()
	ib, q := c.await(from, tag)
	msg := q.pop()
	n := len(msg.data)
	if n == len(dst) {
		copy(dst, msg.data)
	}
	q.free = append(q.free, msg.data)
	ib.mu.Unlock()
	c.arrived(msg.arrive, n)
	if n != len(dst) {
		panic(fmt.Sprintf("cluster: RecvInto got %d values for a %d-length buffer", n, len(dst)))
	}
}

// SendInts / RecvInts move integer payloads (setup-phase exchanges of
// column index lists).
func (c *Comm) SendInts(to, tag int, data []int) {
	f := make([]float64, len(data))
	for i, v := range data {
		f[i] = float64(v)
	}
	c.Send(to, tag, f)
}

// RecvInts receives an integer payload sent with SendInts.
func (c *Comm) RecvInts(from, tag int) []int {
	f := c.Recv(from, tag)
	out := make([]int, len(f))
	for i, v := range f {
		out[i] = int(v)
	}
	return out
}
