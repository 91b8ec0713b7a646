package recovery

import (
	"sync"
	"testing"

	"resilience/internal/checkpoint"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/platform"
)

func mk2L(memEvery, diskEvery int) *CR2L {
	plat := platform.Default()
	return &CR2L{
		Mem:        checkpoint.MemStore{Plat: plat},
		Disk:       checkpoint.DiskStore{Plat: plat},
		MemPolicy:  checkpoint.FixedPolicy(memEvery),
		DiskPolicy: checkpoint.FixedPolicy(diskEvery),
	}
}

func TestCR2LValidate(t *testing.T) {
	if err := mk2L(5, 20).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&CR2L{}).Validate(); err == nil {
		t.Error("missing stores accepted")
	}
	if err := mk2L(20, 5).Validate(); err == nil {
		t.Error("disk interval below memory interval accepted")
	}
	bad := mk2L(5, 20)
	bad.MemPolicy = checkpoint.Policy{}
	if err := bad.Validate(); err == nil {
		t.Error("missing policy accepted")
	}
}

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
	var scheme *CR2L
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
	if scheme.DiskRestores != 1 {
		t.Errorf("disk restores %d, want 1", scheme.DiskRestores)
	}
}

// TestCRMemoryLostOnSWO: plain CR-M cannot use its checkpoint after a
// system-wide outage and falls back to the initial guess.
func TestCRMemoryLostOnSWO(t *testing.T) {
	a := testMatrix()
	mk := func() Scheme {
		return classRewriter{
			inner: &CR{
				Store:  checkpoint.MemStore{Plat: platform.Default()},
				Policy: checkpoint.FixedPolicy(5),
			},
			class: fault.SWO,
		}
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
	var scheme *CR2L
	mk := func() Scheme {
		s := mk2L(3, 9)
		mu.Lock()
		scheme = s
		mu.Unlock()
		return s
	}
	_, _, _ = recoverOnce(t, mk, a, 4, 1, 12)
	if scheme.MemWrites == 0 || scheme.DiskWrites == 0 {
		t.Errorf("writes mem=%d disk=%d", scheme.MemWrites, scheme.DiskWrites)
	}
	if scheme.MemWrites < scheme.DiskWrites {
		t.Error("memory level must checkpoint at least as often as disk")
	}
}
