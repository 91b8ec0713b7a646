package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"resilience/internal/platform"
)

// Tests of the halo plan: the modeled cost of its blocking and
// nonblocking publication, its double buffering, and its wait/wake paths
// (a peer that exits, an abort, a peer that runs ahead). check.sh runs
// them under the race detector ten times with a short -timeout, so a lost
// wake-up fails instead of hanging.

// testHalo builds a plan over peers in which the slot from rank a to rank
// b carries n(a, b) values.
func testHalo(c *Comm, peers []int, n func(from, to int) int) *Halo {
	need := make([][]int, len(peers))
	for i, o := range peers {
		need[i] = make([]int, n(o, c.Rank()))
	}
	h, _ := c.NewHalo(50, peers, need)
	return h
}

// others lists every rank but c's own, ascending.
func others(c *Comm) []int {
	var peers []int
	for r := 0; r < c.Size(); r++ {
		if r != c.Rank() {
			peers = append(peers, r)
		}
	}
	return peers
}

func fixed(n int) func(int, int) int { return func(int, int) int { return n } }

func TestHaloNewReturnsPeersNeeds(t *testing.T) {
	// Each rank asks every other for the list [rank, peer, ...] of
	// length 1+rank; the plan returns what each peer asked for and sizes
	// the slots to match.
	run(t, 4, func(c *Comm) error {
		peers := others(c)
		need := make([][]int, len(peers))
		for i, o := range peers {
			need[i] = []int{c.Rank(), o, 7, 7}[:1+c.Rank()%4]
		}
		h, give := c.NewHalo(50, peers, need)
		for i, o := range peers {
			want := []int{o, c.Rank(), 7, 7}[:1+o%4]
			if fmt.Sprint(give[i]) != fmt.Sprint(want) || len(h.Slot(i)) != len(want) {
				return fmt.Errorf("rank %d from %d: got %v (slot %d), want %v", c.Rank(), o, give[i], len(h.Slot(i)), want)
			}
		}
		return nil
	})
}

// TestHaloPostChargesNoCPUTime verifies the overlap clock model: posting
// an exchange leaves the sender's clock untouched, while a blocking Send
// advances it by the full injection cost.
func TestHaloPostChargesNoCPUTime(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		h := testHalo(c, others(c), fixed(64))
		before := c.Clock()
		h.Post()
		if c.Clock() != before {
			return fmt.Errorf("Post advanced sender clock %g -> %g", before, c.Clock())
		}
		if h.arrive[0][0] <= before {
			return fmt.Errorf("Post arrival %g not after post time %g", h.arrive[0][0], before)
		}
		h.Recv(0)
		before = c.Clock()
		h.Send()
		if c.Clock() <= before {
			return fmt.Errorf("Send did not advance sender clock")
		}
		h.Recv(0)
		return nil
	})
}

// TestHaloPostNICSerialization verifies that a posted exchange injects
// its slots serially on the NIC: slot k arrives k wire times after the
// first injection starts, so overlapping cannot conjure infinite
// bandwidth.
func TestHaloPostNICSerialization(t *testing.T) {
	const k, n = 4, 128
	cost := platform.Default().P2PTime(8 * n)
	run(t, k+1, func(c *Comm) error {
		peers := []int{0}
		if c.Rank() == 0 {
			peers = others(c)
		}
		h := testHalo(c, peers, fixed(n))
		t0 := c.Clock()
		h.Post()
		for i := range peers {
			want := t0 + float64(i+1)*cost
			if got := h.arrive[0][i]; math.Abs(got-want) > 1e-15 {
				return fmt.Errorf("rank %d slot %d arrives at %g, want %g", c.Rank(), i, got, want)
			}
			h.Recv(i)
		}
		return nil
	})
}

// TestOverlapChargesMaxCommCompute pins the LogGP-style accounting the
// overlapped SpMV relies on: a posted exchange completed after local
// compute costs max(comm, compute) for the span, not their sum.
func TestOverlapChargesMaxCommCompute(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		const n = 512
		plat := platform.Default()
		wire := plat.P2PTime(8 * n)
		h := testHalo(c, others(c), fixed(n))
		if c.Rank() == 0 {
			// Exchange 0 is posted at clock 0 and lands at wire; rank 1's
			// lands here at wire too, so exchange 1 is posted at wire and
			// lands at 2*wire.
			for ex := 0; ex < 2; ex++ {
				h.Post()
				h.Recv(0)
			}
			return nil
		}

		// Case 1: compute shorter than the wire time -> the span costs the
		// full communication time.
		h.Post()
		t0 := c.Clock()
		c.Compute(1)
		h.Recv(0)
		if span := c.Clock() - t0; math.Abs(span-wire) > 1e-12 {
			return fmt.Errorf("short-compute span %g, want wire time %g", span, wire)
		}

		// Case 2: compute longer than the remaining flight time -> the
		// communication is fully hidden and the span costs only the compute.
		h.Post()
		const bigFlops = int64(1_000_000)
		work := plat.ComputeTime(bigFlops, c.Freq())
		if work <= 2*wire {
			return fmt.Errorf("test setup: compute %g does not dominate flight %g", work, 2*wire)
		}
		t1 := c.Clock()
		c.Compute(bigFlops)
		h.Recv(0)
		if span := c.Clock() - t1; math.Abs(span-work) > 1e-12 {
			return fmt.Errorf("long-compute span %g, want compute time %g (comm hidden)", span, work)
		}
		return nil
	})
}

// TestHaloSlotsDoubleBuffered: once an exchange is published the sender
// fills the next one's slot at once, before its peer has read anything;
// the peer must still read the published values.
func TestHaloSlotsDoubleBuffered(t *testing.T) {
	forTokens(t, 2, func(t *testing.T) {
		var refilled atomic.Bool
		err := runWithWatchdog(t, 2, func(c *Comm) error {
			h := testHalo(c, others(c), fixed(2))
			if c.Rank() == 0 {
				copy(h.Slot(0), []float64{1, 2})
				h.Send()
				copy(h.Slot(0), []float64{9, 9})
				refilled.Store(true)
				h.Recv(0)
				h.Send()
				h.Recv(0)
				return nil
			}
			h.Send()
			if err := awaitState(c, "rank 0 refills its slot", refilled.Load); err != nil {
				return err
			}
			if got := h.Recv(0); got[0] != 1 || got[1] != 2 {
				return fmt.Errorf("exchange 0 clobbered by the next fill: %v", got)
			}
			h.Send()
			if got := h.Recv(0); got[0] != 9 || got[1] != 9 {
				return fmt.Errorf("exchange 1 wrong: %v", got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeadlockPostedRecvFromExitedRank(t *testing.T) {
	forTokens(t, 2, func(t *testing.T) {
		// Rank 0 builds its plan and exits without publishing; rank 1 posts
		// and reads. The read must fail with a diagnostic naming both ends.
		err := runWithWatchdog(t, 2, func(c *Comm) error {
			h := testHalo(c, others(c), fixed(3))
			if c.Rank() == 1 {
				h.Post()
				h.Recv(0)
			}
			return nil
		})
		const want = "cluster: deadlock: rank 1 blocked reading rank 0's halo (exchange 0), which exited without publishing it"
		if err == nil || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
	})
}

func TestAbortWakesRankParkedOnHalo(t *testing.T) {
	forTokens(t, 4, func(t *testing.T) {
		// Ranks 1..3 publish and park reading rank 0, which never publishes
		// and never exits while they wait: only the abort can wake them. Rank 0
		// fails once all three are parked; Run must return its error.
		boom := errors.New("rank 0 failed")
		err := runWithWatchdog(t, 4, func(c *Comm) error {
			h := testHalo(c, others(c), fixed(1))
			if c.Rank() != 0 {
				h.Send()
				h.Recv(0)
				return errors.New("read of an unpublished halo returned")
			}
			err := awaitState(c, "ranks 1..3 park", func() bool {
				return parked(c.rt, 1) && parked(c.rt, 2) && parked(c.rt, 3)
			})
			if err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want rank 0's error", err)
		}
	})
}

func TestHaloRunAheadPanics(t *testing.T) {
	forTokens(t, 2, func(t *testing.T) {
		// Rank 0 publishes three exchanges without reading any, so it refills
		// the slot rank 1 has yet to read. Rank 1's read must refuse.
		err := runWithWatchdog(t, 2, func(c *Comm) error {
			h := testHalo(c, others(c), fixed(1))
			if c.Rank() == 0 {
				for i := 0; i < 3; i++ {
					h.Send()
				}
				return nil
			}
			h.Send()
			if err := awaitState(c, "rank 0 publishes three exchanges", func() bool { return h.in[0].gen.Load() == 3 }); err != nil {
				return err
			}
			h.Recv(0)
			return errors.New("read of an overwritten slot returned")
		})
		const want = "cluster: rank 1 panicked: cluster: halo run-ahead: rank 1 reads exchange 0 but rank 0 has published 3"
		if err == nil || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
	})
}

func TestHaloStress(t *testing.T) {
	// Every rank neighbours every other; back-to-back exchanges alternate
	// Send and Post, each rank reads its peers in a fresh random order and
	// yields at random, and every value encodes its sender, the exchange
	// and its position, checked on receipt.
	const rounds = 100
	for _, p := range []int{16, 32} {
		err := runWithWatchdog(t, p, func(c *Comm) error {
			rank := c.Rank()
			rng := rand.New(rand.NewSource(int64(rank)))
			peers := others(c)
			h := testHalo(c, peers, func(a, b int) int { return 1 + (a+b)%3 })
			val := func(from, ex, j int) float64 { return float64(1_000_000*from + 10*ex + j) }
			order := make([]int, len(peers))
			for i := range order {
				order[i] = i
			}
			for ex := 0; ex < rounds; ex++ {
				for i := range peers {
					slot := h.Slot(i)
					for j := range slot {
						slot[j] = val(rank, ex, j)
					}
				}
				if rng.Intn(4) == 0 {
					runtime.Gosched()
				}
				if ex%2 == 0 {
					h.Send()
				} else {
					h.Post()
				}
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				for _, i := range order {
					if rng.Intn(8) == 0 {
						runtime.Gosched()
					}
					got := h.Recv(i)
					if len(got) != 1+(rank+peers[i])%3 {
						return fmt.Errorf("exchange %d rank %d from %d: %d values", ex, rank, peers[i], len(got))
					}
					for j, v := range got {
						if v != val(peers[i], ex, j) {
							return fmt.Errorf("exchange %d rank %d from %d: got %v", ex, rank, peers[i], got)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestHaloRejectsOneSidedPeers(t *testing.T) {
	// Rank 0 lists rank 1 as a peer but rank 1 lists nobody: the relation
	// is not symmetric, and rank 0 cannot find itself in rank 1's plan.
	// Rank 1 trades need lists by hand so rank 0's setup gets that far.
	err := runWithWatchdog(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			c.NewHalo(50, nil, nil)
			c.Send(0, 50, nil)
			c.Recv(0, 50)
			return nil
		}
		c.NewHalo(50, []int{1}, [][]int{{0}})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "lists rank 1 but not the reverse") {
		t.Fatalf("got %v, want the symmetry diagnostic", err)
	}
}
