package recovery

import (
	"sync"
	"testing"

	"resilience/internal/fault"
	"resilience/internal/matgen"
)

// TestCR2LRecoversFromMemoryForSNF: a node failure restores the freshest
// (memory) checkpoint.
func TestCR2LRecoversFromMemoryForSNF(t *testing.T) {
	a := testMatrix()
	mk := func() Scheme { return mk2L(5, 50) }
	e, _, _ := recoverOnce(t, mk, a, 4, 1, 12)
	// Memory checkpoint from iteration 10 restores a near state.
	if e == 0 || e > 1 {
		t.Errorf("CR-2L SNF rollback error %g", e)
	}
}

// TestCR2LSurvivesSWOThroughDisk: an outage voids the memory level; the
// disk level still bounds the rollback.
func TestCR2LSurvivesSWOThroughDisk(t *testing.T) {
	a := testMatrix()
	var mu sync.Mutex
	var scheme *CR
	mkScheme := func() Scheme {
		s := mk2L(5, 10)
		mu.Lock()
		scheme = s
		mu.Unlock()
		return s
	}
	// Reuse recoverOnce's machinery but with an SWO fault, via a wrapper
	// that rewrites the class.
	wrap := func() Scheme { return classRewriter{inner: mkScheme(), class: fault.SWO} }
	e, _, _ := recoverOnce(t, wrap, a, 4, 1, 12)
	if e == 0 || e > 1 {
		t.Errorf("CR-2L SWO rollback error %g", e)
	}
	if disk := scheme.Levels[1].Restores; disk != 1 {
		t.Errorf("disk restores %d, want 1", disk)
	}
}

// TestCRMemoryLostOnSWO: plain CR-M cannot use its checkpoint after a
// system-wide outage and falls back to zeros.
func TestCRMemoryLostOnSWO(t *testing.T) {
	a := testMatrix()
	mk := func() Scheme {
		return classRewriter{inner: crM(5), class: fault.SWO}
	}
	e, _, _ := recoverOnce(t, mk, a, 4, 1, 12)
	// Restoring zeros: error 1 relative to the lost state.
	if e < 0.99 {
		t.Errorf("CR-M after SWO error %g, want ~1 (checkpoint lost)", e)
	}
}

// classRewriter forces a fault class before delegating, so the shared
// recoverOnce fixture (which injects SNF) can exercise other classes.
type classRewriter struct {
	inner Scheme
	class fault.Class
}

func (w classRewriter) Recover(ctx *Ctx, f fault.Fault) (bool, error) {
	f.Class = w.class
	return w.inner.Recover(ctx, f)
}
func (w classRewriter) AfterIteration(ctx *Ctx, k int) error { return w.inner.AfterIteration(ctx, k) }
func (w classRewriter) Redundancy() int                      { return w.inner.Redundancy() }

func TestCR2LCheckpointCounts(t *testing.T) {
	a := matgen.BandedSPD(matgen.BandedOpts{N: 160, NNZPerRow: 7, Kappa: 200, Seed: 5})
	var mu sync.Mutex
	var scheme *CR
	mk := func() Scheme {
		s := mk2L(3, 9)
		mu.Lock()
		scheme = s
		mu.Unlock()
		return s
	}
	_, _, _ = recoverOnce(t, mk, a, 4, 1, 12)
	mem, disk := scheme.Levels[0].Writes, scheme.Levels[1].Writes
	if mem == 0 || disk == 0 {
		t.Errorf("writes mem=%d disk=%d", mem, disk)
	}
	if mem < disk {
		t.Error("memory level must checkpoint at least as often as disk")
	}
}
