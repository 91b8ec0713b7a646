package cluster

import (
	"fmt"
	"testing"
)

// TestSendBufferReuseAcrossSends pins the aliasing contract on Send: the
// payload is copied before Send returns, so a caller may overwrite its
// staging buffer between consecutive sends.
func TestSendBufferReuseAcrossSends(t *testing.T) {
	_, _ = run(t, 2, func(c *Comm) error {
		const tag = 7
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			c.Send(1, tag, buf)
			// Clobber the staging buffer and send again.
			buf[0], buf[1], buf[2] = 4, 5, 6
			c.Send(1, tag, buf)
			return nil
		}
		first := c.Recv(0, tag)
		second := c.Recv(0, tag)
		if first[0] != 1 || first[1] != 2 || first[2] != 3 {
			return fmt.Errorf("first message clobbered by buffer reuse: %v", first)
		}
		if second[0] != 4 || second[1] != 5 || second[2] != 6 {
			return fmt.Errorf("second message wrong: %v", second)
		}
		return nil
	})
}
