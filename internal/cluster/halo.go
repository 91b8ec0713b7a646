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
	// both in place once gen shows exchange k published.
	out    [2][][]float64
	arrive [2][]float64

	// gen counts the exchanges this rank has published; it is the one word
	// peers read to synchronize with the slots. next is the owner's own
	// copy of it.
	gen  atomic.Uint64
	next uint64

	// in[i] is peers[i]'s plan, and at[i] this rank's position in that
	// plan's peer list.
	in []*Halo
	at []int
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
	h = &Halo{c: c, peers: peers, in: make([]*Halo, len(peers)), at: make([]int, len(peers))}
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
		h.in[i], h.at[i] = peer, at
	}
	n := len(peers)
	vals := make([]float64, 2*total)
	slots := make([][]float64, 2*n)
	arrive := make([]float64, 2*n)
	for par := range h.out {
		h.out[par], slots = slots[:n:n], slots[n:]
		h.arrive[par], arrive = arrive[:n:n], arrive[n:]
		for i, g := range give {
			h.out[par][i], vals = vals[:len(g):len(g)], vals[len(g):]
		}
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

// Slot returns this rank's outgoing slot for peers[i] in the next
// exchange. The caller fills every slot, then publishes them with Send or
// Post.
func (h *Halo) Slot(i int) []float64 { return h.out[h.next&1][i] }

// Send publishes the next exchange as blocking sends, one per peer in
// peer order: each charges the injection cost to the rank's clock at
// active power, exactly as Comm.Send does, and the slot arrives when its
// injection ends.
func (h *Halo) Send() {
	c := h.c
	c.checkAbort()
	par := h.next & 1
	for i, slot := range h.out[par] {
		h.arrive[par][i] = c.inject(len(slot))
	}
	h.publish()
}

// Post publishes the next exchange as nonblocking sends: the network
// interface injects the slots one after another in peer order, so the
// rank's clock does not move, the k-th slot lands k wire times after the
// first injection starts, and compute done before the matching Recv
// hides the exchange (a span costs max(communication, compute), not
// their sum). Posts are counted as traffic but have no extent on the
// rank's timeline.
func (h *Halo) Post() {
	c := h.c
	c.checkAbort()
	par := h.next & 1
	for i, slot := range h.out[par] {
		bytes := int64(8 * len(slot))
		start := c.clock
		if c.nicFree > start {
			start = c.nicFree
		}
		c.nicFree = start + c.rt.plat.P2PTime(bytes)
		h.arrive[par][i] = c.nicFree
		if c.obs != nil {
			c.obs.AddSend(bytes)
		}
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
		if s, ok := w.waiting(); ok && w.h.Load() == h && uint64(w.at.Load()) < h.next {
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
		panic("cluster: Halo.Recv before the first Send or Post")
	}
	k := h.next - 1
	peer := h.in[i]
	g := peer.gen.Load()
	if g <= k {
		h.await(i, k)
		g = peer.gen.Load()
	}
	if g > k+2 {
		panic(fmt.Sprintf("cluster: halo run-ahead: rank %d reads exchange %d but rank %d has published %d",
			h.c.rank, k, h.peers[i], g))
	}
	par, at := k&1, h.at[i]
	vals := peer.out[par][at]
	h.c.arrived(peer.arrive[par][at], len(vals))
	return vals
}

// await blocks the rank until peers[i] publishes exchange k, handing its
// token on meanwhile. Exit and abort wake-ups reach it through its wait
// record: an exited peer that never published is a deadlock, reported
// with both ranks named.
func (h *Halo) await(i int, k uint64) {
	c, peer, from := h.c, h.in[i], h.peers[i]
	rt := c.rt
	w := &rt.sched.recs[c.rank]
	for peer.gen.Load() <= k && !rt.abortFlag.Load() {
		// The generation is read again after the exit: a peer publishes
		// before it exits, so only a still-missing exchange is a deadlock.
		if rt.isExited(from) && peer.gen.Load() <= k {
			rt.abort(fmt.Errorf("cluster: deadlock: rank %d blocked reading rank %d's halo (exchange %d), which exited without publishing it", c.rank, from, k))
			continue
		}
		s := w.begin(waitHalo, from, int64(k), nil, peer)
		rt.sched.sleep(c.rank, s, peer.gen.Load() > k || rt.abortFlag.Load() || rt.isExited(from))
	}
	if rt.abortFlag.Load() {
		panic(abortPanic{err: fmt.Errorf("cluster: halo read on aborted runtime")})
	}
}
