package cluster

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Halo is one rank's persistent neighbour-exchange plan: the repeated
// exchange a block-row solver makes with a fixed set of peers, one
// fixed-length slot per peer, once per iteration.
//
// The exchange is one-sided. Each rank owns two outgoing slots per peer,
// selected by the parity of the exchange number, plus each slot's modeled
// arrival time. Publishing an exchange is one atomic store of the rank's
// generation; a peer reads its slot in place once the generation says the
// exchange is out, then advances its clock to the slot's arrival. There
// is no lock, no tag matching and no copy between the two ranks' buffers.
//
// Two slots are enough because the neighbour relation is symmetric: a
// rank finishes reading exchange k+1 only after every peer has published
// k+1, and a peer publishes k+1 only after it has read all of exchange k.
// So a publisher is at most one exchange ahead of any reader, and the
// slot it refills for k+2 is one its readers are done with. Recv checks
// this and panics if a peer has run further ahead.
//
// A Halo belongs to its rank's goroutine, like the Comm it was built on.
type Halo struct {
	c     *Comm
	peers []int // neighbour ranks, ascending

	// out[k&1][i] is this rank's slot for peers[i] in exchange k, and
	// arrive[k&1][i] the virtual time it lands at that peer. Peers read
	// both in place once gen shows exchange k published. cost[i] is the
	// injection time of slot i, fixed by its length.
	out    [2][][]float64
	arrive [2][]float64
	cost   []float64

	// gen counts the exchanges this rank has published; it is the one word
	// peers read to synchronize with the slots. next is the owner's own
	// copy of it.
	gen  atomic.Uint64
	next uint64

	// in[i] is where this rank reads peers[i]'s slots.
	in []inSlot
}

// inSlot is one peer's plan seen from a reader: the plan, this rank's
// position in its peer list, and, once the peer has published, the two
// slots and arrival cells this rank reads there.
type inSlot struct {
	h      *Halo
	at     int
	vals   [2][]float64
	arrive [2]*float64
}

// NewHalo builds this rank's next neighbour-exchange plan and runs its
// one-time setup through the tagged point-to-point path: need[i], the
// indices this rank needs from peers[i], goes to that peer, and the
// returned give[i] holds the indices peers[i] needs from this rank. Slot
// i then carries len(give[i]) values to peers[i] in every exchange.
//
// peers must be ascending and the relation symmetric (r lists o iff o
// lists r). Every rank must call NewHalo collectively, the same number of
// times: a rank's k-th plan is paired with its peers' k-th plans.
func (c *Comm) NewHalo(tag int, peers []int, need [][]int) (h *Halo, give [][]int) {
	if len(need) != len(peers) || !sort.IntsAreSorted(peers) {
		panic(fmt.Sprintf("cluster: NewHalo needs ascending peers and one need list each (%d peers, %d lists)",
			len(peers), len(need)))
	}
	h = &Halo{c: c, peers: peers, in: make([]inSlot, len(peers))}
	// Registered before any need list leaves: a peer looks the plan up
	// only after receiving this rank's list, so the message orders the
	// registration before the lookup.
	k := c.halos
	c.halos++
	c.rt.registerHalo(c.rank, k, h)
	for i, o := range peers {
		c.SendInts(o, tag, need[i])
	}
	give = make([][]int, len(peers))
	total := 0
	for i, o := range peers {
		give[i] = c.RecvInts(o, tag)
		total += len(give[i])
		peer := c.rt.lookupHalo(o, k)
		at := sort.SearchInts(peer.peers, c.rank)
		if at == len(peer.peers) || peer.peers[at] != c.rank {
			panic(fmt.Sprintf("cluster: rank %d's halo plan lists rank %d but not the reverse", c.rank, o))
		}
		h.in[i] = inSlot{h: peer, at: at}
	}
	n := len(peers)
	vals := make([]float64, 2*total)
	slots := make([][]float64, 2*n)
	times := make([]float64, 3*n)
	for par := range h.out {
		h.out[par], slots = slots[:n:n], slots[n:]
		h.arrive[par], times = times[:n:n], times[n:]
		for i, g := range give {
			h.out[par][i], vals = vals[:len(g):len(g)], vals[len(g):]
		}
	}
	h.cost = times
	for i, g := range give {
		h.cost[i] = c.rt.plat.P2PTime(int64(8 * len(g)))
	}
	return h, give
}

// registerHalo records a rank's k-th plan. Plans are set up once per
// operator, so a mutex is cheap here and keeps the table race-free while
// ranks build their plans at different times.
func (rt *Runtime) registerHalo(rank, k int, h *Halo) {
	rt.halosMu.Lock()
	defer rt.halosMu.Unlock()
	if n := (k + 1) * rt.p; n > len(rt.halos) {
		grown := make([]*Halo, n)
		copy(grown, rt.halos)
		rt.halos = grown
	}
	rt.halos[k*rt.p+rank] = h
}

// lookupHalo returns a rank's k-th plan; see registerHalo.
func (rt *Runtime) lookupHalo(rank, k int) *Halo {
	rt.halosMu.Lock()
	defer rt.halosMu.Unlock()
	return rt.halos[k*rt.p+rank]
}

// Slots returns this rank's outgoing slots for the next exchange, slot i
// for peers[i]. The caller fills every slot, then publishes them with
// Send.
func (h *Halo) Slots() [][]float64 { return h.out[h.next&1] }

// Send publishes the next exchange as blocking sends, one per peer in
// peer order: each charges the injection cost to the rank's clock at
// active power, exactly as Comm.Send does, and the slot arrives when its
// injection ends.
func (h *Halo) Send() {
	c := h.c
	c.checkAbort()
	par := h.next & 1
	arrive := h.arrive[par]
	for i, slot := range h.out[par] {
		arrive[i] = c.inject(len(slot), h.cost[i])
	}
	h.publish()
}

// publish makes the filled slots visible with one atomic store, then
// wakes the peers waiting for this exchange of this plan, and only those.
func (h *Halo) publish() {
	h.next++
	h.gen.Store(h.next)
	sc := &h.c.rt.sched
	for _, o := range h.peers {
		w := &sc.recs[o]
		if s, ok := w.waiting(); ok && waitKind(w.kind.Load()) == waitHalo && w.h.Load() == h && uint64(w.at.Load()) < h.next {
			sc.wake(o, s)
		}
	}
}

// Recv completes peers[i]'s part of the exchange this rank published
// last: it waits until that peer has published the same exchange,
// advances the clock to the slot's arrival (charged as a blocked
// receive) and returns the peer's slot in place. The slice is the peer's
// own buffer: it must not be written, and it holds this exchange's values
// until this rank publishes its next one.
func (h *Halo) Recv(i int) []float64 {
	if h.next == 0 {
		panic("cluster: Halo.Recv before the first Send")
	}
	k := h.next - 1
	in := &h.in[i]
	g := in.h.gen.Load()
	if g <= k {
		h.await(i, k)
		g = in.h.gen.Load()
	}
	if g > k+2 {
		panic(fmt.Sprintf("cluster: halo run-ahead: rank %d reads exchange %d but rank %d has published %d",
			h.c.rank, k, h.peers[i], g))
	}
	if in.arrive[0] == nil {
		// The peer has published, so its plan's slots are built and
		// fixed for the run: look them up once.
		for par := range in.vals {
			in.vals[par], in.arrive[par] = in.h.out[par][in.at], &in.h.arrive[par][in.at]
		}
	}
	par := k & 1
	vals := in.vals[par]
	h.c.arrived(*in.arrive[par], len(vals))
	return vals
}

// await blocks the rank until peers[i] publishes exchange k, handing its
// token on meanwhile; the publish or an abort wakes it through its wait
// record. A peer that returned without publishing wakes nobody: the
// scheduler's deadlock verdict names both ranks.
func (h *Halo) await(i int, k uint64) {
	c, peer := h.c, h.in[i].h
	rt := c.rt
	w := &rt.sched.recs[c.rank]
	for peer.gen.Load() <= k && !rt.abortFlag.Load() {
		s := w.begin(waitHalo, h.peers[i], int64(k), nil, peer)
		rt.sched.sleep(c.rank, s, peer.gen.Load() > k || rt.abortFlag.Load())
	}
	if rt.abortFlag.Load() {
		panic(abortPanic{err: fmt.Errorf("cluster: halo read on aborted runtime")})
	}
}
