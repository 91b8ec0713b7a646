package cluster

import (
	"strings"
	"testing"
	"time"

	"resilience/internal/platform"
	"resilience/internal/power"
)

// runWithWatchdog runs fn on p ranks and fails the test if the run does
// not complete within the deadline — the whole point of the deadlock
// detector is that a broken program terminates with a diagnostic instead
// of hanging the suite.
func runWithWatchdog(t *testing.T, p int, fn func(c *Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := Run(p, platform.Default(), power.NewMeter(false), fn)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run hung: a blocked rank was never woken")
		return nil
	}
}

func TestDeadlockMismatchedCollective(t *testing.T) {
	forTokens(t, 4, func(t *testing.T) {
		// Rank 0 skips the barrier and exits cleanly; the other ranks block in
		// a collective that can never complete. The detector must abort the
		// run with a participation diagnostic.
		err := runWithWatchdog(t, 4, func(c *Comm) error {
			if c.Rank() == 0 {
				return nil
			}
			c.Barrier()
			return nil
		})
		if err == nil {
			t.Fatal("mismatched collective participation returned nil error")
		}
		if !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("want deadlock diagnostic, got: %v", err)
		}
	})
}

func TestDeadlockMismatchedScalarCollective(t *testing.T) {
	forTokens(t, 4, func(t *testing.T) {
		// Same as above with the others parked in a one-value allreduce.
		err := runWithWatchdog(t, 4, func(c *Comm) error {
			if c.Rank() == 2 {
				return nil
			}
			c.AllreduceScalarSum(1.0)
			return nil
		})
		if err == nil {
			t.Fatal("mismatched scalar collective returned nil error")
		}
		if !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("want deadlock diagnostic, got: %v", err)
		}
	})
}

func TestDeadlockMismatchedVectorCollective(t *testing.T) {
	forTokens(t, 4, func(t *testing.T) {
		// Same again with the others parked in a vector allreduce.
		err := runWithWatchdog(t, 4, func(c *Comm) error {
			if c.Rank() == 1 {
				return nil
			}
			c.AllreduceSum(make([]float64, 37))
			return nil
		})
		if err == nil {
			t.Fatal("mismatched vector collective returned nil error")
		}
		if !strings.Contains(err.Error(), "exited without joining") {
			t.Fatalf("want participation diagnostic, got: %v", err)
		}
	})
}

func TestAllreduceLengthMismatchAborts(t *testing.T) {
	forTokens(t, 4, func(t *testing.T) {
		// Ranks that disagree on the contribution length have a bug no sum can
		// paper over: whichever rank arrives last must fail the run with the
		// length diagnostic, and every parked rank must be released.
		err := runWithWatchdog(t, 4, func(c *Comm) error {
			c.Compute(int64(1000 * (c.Rank() + 1)))
			if c.Rank() == 2 {
				c.AllreduceScalarSum(1)
			} else {
				c.AllreduceSum(make([]float64, 3))
			}
			return nil
		})
		if err == nil {
			t.Fatal("mismatched allreduce lengths returned nil error")
		}
		if !strings.Contains(err.Error(), "length mismatch") {
			t.Fatalf("want length diagnostic, got: %v", err)
		}
	})
}

func TestDeadlockRecvFromExitedRank(t *testing.T) {
	forTokens(t, 2, func(t *testing.T) {
		// Rank 1 waits for a message rank 0 never sends; rank 0 exits. The
		// receive must fail with a diagnostic naming both ends.
		err := runWithWatchdog(t, 2, func(c *Comm) error {
			if c.Rank() == 1 {
				c.Recv(0, 7)
			}
			return nil
		})
		if err == nil {
			t.Fatal("recv from exited rank returned nil error")
		}
		for _, want := range []string{"deadlock", "rank 1", "rank 0"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("diagnostic missing %q: %v", want, err)
			}
		}
	})
}

func TestDeadlockRankFaultsMidCollective(t *testing.T) {
	forTokens(t, 4, func(t *testing.T) {
		// A rank that dies (panics) while the others sit in a collective must
		// abort the whole run promptly — this is the "rank faulting
		// mid-collective" scenario a fault campaign produces when an injected
		// process fault escapes its recovery scheme.
		err := runWithWatchdog(t, 4, func(c *Comm) error {
			if c.Rank() == 3 {
				panic("injected process fault")
			}
			c.Barrier()
			return nil
		})
		if err == nil {
			t.Fatal("rank fault mid-collective returned nil error")
		}
		if !strings.Contains(err.Error(), "injected process fault") {
			t.Fatalf("abort should carry the faulting rank's panic, got: %v", err)
		}
	})
}

func TestDeadlockDetectorNoFalsePositive(t *testing.T) {
	forTokens(t, 8, func(t *testing.T) {
		// A healthy bulk-synchronous program where ranks finish at staggered
		// times must not trip the detector: ranks that exit after the final
		// collective are not "missing" from any in-flight generation.
		err := runWithWatchdog(t, 8, func(c *Comm) error {
			for i := 0; i < 50; i++ {
				c.AllreduceScalarSum(float64(c.Rank() + i))
				if c.Rank()%2 == 0 {
					c.Compute(int64(1000 * (c.Rank() + 1)))
				}
			}
			// Staggered p2p drain, then exit at different virtual times.
			if c.Rank() > 0 {
				c.Send(0, 1, []float64{float64(c.Rank())})
			} else {
				for r := 1; r < 8; r++ {
					c.Recv(r, 1)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("healthy program tripped the deadlock detector: %v", err)
		}
	})
}

func TestDeadlockLiveReceiveCycle(t *testing.T) {
	forTokens(t, 2, func(t *testing.T) {
		// Two live ranks each receive from the other before sending: no
		// rank exits and nothing outside the ranks can wake one, so the
		// scheduler must find every live rank blocked and abort with each
		// one and what it waits for named.
		err := runWithWatchdog(t, 2, func(c *Comm) error {
			other := 1 - c.Rank()
			c.Recv(other, 7)
			c.Send(other, 7, nil)
			return nil
		})
		const want = "cluster: deadlock: every live rank is blocked: " +
			"rank 0 receiving from rank 1 (tag 7); rank 1 receiving from rank 0 (tag 7)"
		if err == nil || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
	})
}
