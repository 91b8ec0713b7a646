package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"resilience/internal/platform"
	"resilience/internal/power"
)

// Tests of the per-receiver inboxes: matching semantics (which message a
// receive gets) and the wake-up paths (who is woken by a post, an exit
// and an abort). check.sh also runs them under the race detector with a
// short -timeout, so a lost wake-up fails instead of hanging.

// awaitState waits until cond holds. The tests use it to sequence one
// rank after another's wait or exit, which no cluster primitive can
// observe. Between looks the rank marks itself ready and yields to its
// group's driver, so the ranks it waits for run even when they share its
// token, and then yields the core to the other groups' drivers.
func awaitState(c *Comm, what string, cond func() bool) error {
	deadline := time.Now().Add(20 * time.Second)
	w := &c.rt.sched.recs[c.rank]
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("rank %d: timed out waiting until %s", c.rank, what)
		}
		w.group.set(c.rank)
		w.yield(struct{}{})
		runtime.Gosched()
	}
	return nil
}

// parked reports whether the rank is blocked in a receive or a halo read,
// as its wait record says.
func parked(rt *Runtime, rank int) bool {
	w := &rt.sched.recs[rank]
	_, waiting := w.waiting()
	k := waitKind(w.kind.Load())
	return waiting && (k == waitRecv || k == waitHalo)
}

func TestRecvOutOfPostOrderAcrossSenders(t *testing.T) {
	forTokens(t, 3, func(t *testing.T) {
		// Rank 1 posts to rank 0 first, rank 2 provably afterwards (it waits
		// for rank 1's token); rank 0 asks for rank 2's message first. Each
		// receive must get its own sender's payload.
		err := runWithWatchdog(t, 3, func(c *Comm) error {
			switch c.Rank() {
			case 1:
				c.Send(0, 4, []float64{101, 102})
				c.Send(2, 9, nil)
			case 2:
				c.Recv(1, 9)
				c.Send(0, 4, []float64{201})
			case 0:
				b := c.Recv(2, 4)
				a := c.Recv(1, 4)
				if len(b) != 1 || b[0] != 201 || len(a) != 2 || a[0] != 101 || a[1] != 102 {
					return fmt.Errorf("got from rank 2: %v, from rank 1: %v", b, a)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestTwoTagsOneChannelEachFIFO(t *testing.T) {
	// Four messages per tag are all in flight (the sender's closing token
	// is received first) and drained in the opposite tag order, mixing
	// Recv, which keeps the queue's buffer, with RecvInto, which recycles
	// it. A second wave of other lengths reuses the recycled buffers and
	// must not disturb slices Recv handed out in the first.
	const n = 4
	payload := func(tag, wave, i int) []float64 {
		v := make([]float64, 1+(i+wave)%3)
		for k := range v {
			v[k] = float64(1000*tag + 100*wave + 10*i + k)
		}
		return v
	}
	same := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for k := range got {
			if got[k] != want[k] {
				return false
			}
		}
		return true
	}
	err := runWithWatchdog(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for wave := 0; wave < 2; wave++ {
				for i := 0; i < n; i++ {
					c.Send(1, 1, payload(1, wave, i))
					c.Send(1, 2, payload(2, wave, i))
				}
				c.Send(1, 3, nil)
			}
			return nil
		}
		var kept [][]float64
		var keptWant [][]float64
		for wave := 0; wave < 2; wave++ {
			c.Recv(0, 3)
			for _, tag := range []int{2, 1} {
				for i := 0; i < n; i++ {
					want := payload(tag, wave, i)
					var got []float64
					if i%2 == 0 {
						got = c.Recv(0, tag)
						kept, keptWant = append(kept, got), append(keptWant, want)
					} else {
						got = make([]float64, len(want))
						c.RecvInto(0, tag, got)
					}
					if !same(got, want) {
						return fmt.Errorf("wave %d tag %d message %d: got %v, want %v", wave, tag, i, got, want)
					}
				}
			}
		}
		for i := range kept {
			if !same(kept[i], keptWant[i]) || cap(kept[i]) != len(kept[i]) {
				return fmt.Errorf("slice returned by Recv changed afterwards: %v (cap %d), want %v", kept[i], cap(kept[i]), keptWant[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewTagWhileReceiverParkedOnChannel(t *testing.T) {
	forTokens(t, 2, func(t *testing.T) {
		// Rank 1 parks on (0→1, tag 1). Rank 0 then opens five more tags on
		// the same channel — growing the channel's queue list under the parked
		// receiver — before posting tag 1. The parked receive must still see
		// its message, and the other tags theirs.
		err := runWithWatchdog(t, 2, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Recv(1, 99)
				if err := awaitState(c, "rank 1 parks", func() bool { return parked(c.rt, 1) }); err != nil {
					return err
				}
				for tag := 6; tag >= 1; tag-- {
					c.Send(1, tag, []float64{float64(tag)})
				}
				return nil
			}
			c.Send(0, 99, nil)
			for tag := 1; tag <= 6; tag++ {
				if got := c.Recv(0, tag); len(got) != 1 || got[0] != float64(tag) {
					return fmt.Errorf("tag %d: got %v", tag, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllToAllStressPinned(t *testing.T) {
	// 32 ranks, 200 rounds of a full exchange plus an allreduce: every
	// payload is checked, and every rank's final clock and the metered
	// energy must be the committed bits on both of two runs.
	const p, rounds = 32, 200
	work := func(c *Comm, out []float64) error {
		rank := c.Rank()
		send := make([]float64, 3)
		recv := make([]float64, 3)
		for round := 0; round < rounds; round++ {
			for d := 1; d < p; d++ {
				to := (rank + d) % p
				send[0], send[1], send[2] = float64(round), float64(rank), float64(to)
				c.Send(to, 1, send[:1+(round+to)%3])
			}
			for d := 1; d < p; d++ {
				from := (rank + p - d) % p
				got := recv[:1+(round+rank)%3]
				c.RecvInto(from, 1, got)
				want := []float64{float64(round), float64(from), float64(rank)}
				for k := range got {
					if got[k] != want[k] {
						return fmt.Errorf("round %d rank %d from %d: got %v", round, rank, from, got)
					}
				}
			}
			c.Compute(int64(1000 * (1 + (rank+round)%5)))
			if sum := c.AllreduceScalarSum(float64(rank + round)); sum != float64(p*(p-1)/2+p*round) {
				return fmt.Errorf("round %d: allreduce %v", round, sum)
			}
		}
		return nil
	}
	checkPinned(t, p, work, pin{clock: 0x1.72fdce7771e41p-07, energy: 0x1.cfbd42154e5fap+01})
}

func TestAbortWakesEveryParkedReceiver(t *testing.T) {
	forTokens(t, 8, func(t *testing.T) {
		// Ranks 1..7 park in a receive cycle among themselves: none of their
		// senders ever exits, so only the abort can wake them, each on its own
		// inbox. Rank 0 fails once all seven are parked; Run must return its
		// error, which it cannot do while any rank still sleeps.
		boom := errors.New("rank 0 failed")
		err := runWithWatchdog(t, 8, func(c *Comm) error {
			if c.Rank() != 0 {
				if c.Rank() == 7 {
					c.Send(0, 99, nil)
				}
				c.Recv(c.Rank()%7+1, 1)
				return errors.New("receive in a cycle returned")
			}
			c.Recv(7, 99)
			err := awaitState(c, "ranks 1..7 park", func() bool {
				for r := 1; r < 8; r++ {
					if !parked(c.rt, r) {
						return false
					}
				}
				return true
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

func TestExitWakesOnlyTheExitedSendersReceiver(t *testing.T) {
	forTokens(t, 3, func(t *testing.T) {
		// Rank 0 parks receiving from rank 1. Rank 2, which rank 0 does not
		// depend on, exits: rank 0 is woken to re-check and must go back to
		// sleep, not abort. Then rank 1 either sends (the run succeeds) or
		// exits too (the run fails with the diagnostic naming both ends).
		for _, senderExits := range []bool{false, true} {
			err := runWithWatchdog(t, 3, func(c *Comm) error {
				switch c.Rank() {
				case 0:
					got := make([]float64, 1)
					c.RecvInto(1, 5, got)
					if got[0] != 42 {
						return fmt.Errorf("got %v", got)
					}
				case 1:
					c.Recv(2, 99)
					err := awaitState(c, "rank 2 exits and rank 0 parks", func() bool {
						return c.rt.isExited(2) && parked(c.rt, 0)
					})
					if err != nil {
						return err
					}
					if err := c.rt.aborted(); err != nil {
						return fmt.Errorf("aborted by an unrelated exit: %w", err)
					}
					if !senderExits {
						c.Send(0, 5, []float64{42})
					}
				case 2:
					c.Send(1, 99, nil)
				}
				return nil
			})
			if !senderExits {
				if err != nil {
					t.Fatalf("unrelated exit then send: %v", err)
				}
				continue
			}
			const want = "cluster: deadlock: rank 0 blocked receiving from rank 1 (tag 5), which exited without sending"
			if err == nil || err.Error() != want {
				t.Fatalf("sender exit: got %v, want %q", err, want)
			}
		}
	})
}

func TestRuntimeIsSingleUse(t *testing.T) {
	// The first run leaves a message queued and every rank marked exited;
	// a second Run on that state would serve the stale message or report a
	// bogus deadlock, so it must be refused.
	rt := NewRuntime(2, 0, platform.Default(), power.NewMeter(false))
	fn := func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		}
		return nil
	}
	if _, err := rt.Run(fn); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	ran := false
	_, err := rt.Run(func(c *Comm) error { ran = true; return nil })
	if err == nil || !strings.Contains(err.Error(), "single-use") {
		t.Fatalf("second Run: got %v, want a single-use error", err)
	}
	if ran {
		t.Fatal("second Run started ranks")
	}
}
