// Package checkpoint implements the checkpoint/restart substrate: storage
// targets with modeled write/read costs (local memory vs a shared disk,
// the paper's CR-M and CR-D), and the optimal-interval formulas of Young
// and Daly used to set checkpointing frequency from the failure rate.
package checkpoint

import (
	"fmt"
	"math"

	"resilience/internal/platform"
)

// Store models a checkpoint storage target. Stores are cost models only;
// the checkpointed data itself lives with the solver state (one block of
// x per rank).
type Store interface {
	// Name returns "memory", "disk", or for a Lossy store "lossy-" and
	// its inner store's name.
	Name() string
	// WriteTime returns the virtual time for one rank to write `bytes`
	// while `writers` ranks write concurrently.
	WriteTime(bytes int64, writers int) float64
	// ReadTime returns the virtual time for one rank to read `bytes`
	// while `readers` ranks read concurrently.
	ReadTime(bytes int64, readers int) float64
	// CPUBusy reports whether the CPU is actively copying (memory store)
	// or mostly waiting on I/O (disk store) during the transfer; it
	// selects the power accounting for the checkpoint phase.
	CPUBusy() bool
}

// MemStore checkpoints into memory (the paper's CR-M): cheap and of
// constant cost regardless of system size. To survive a single-node
// failure the copy must leave the node, so the model includes one network
// hop to a buddy node alongside the local memory copy; buddy pairs are
// disjoint, so there is no cross-node contention.
type MemStore struct {
	Plat *platform.Platform
}

// Name implements Store.
func (s MemStore) Name() string { return "memory" }

// WriteTime implements Store: a local copy plus the buddy-node transfer.
func (s MemStore) WriteTime(bytes int64, _ int) float64 {
	return s.Plat.MemWriteTime(bytes) + s.Plat.P2PTime(bytes)
}

// ReadTime implements Store: restoration pulls the block back from the
// buddy; the local copy-in runs at the memory read bandwidth
// (Platform.MemReadBandwidth, which defaults to the write bandwidth).
func (s MemStore) ReadTime(bytes int64, _ int) float64 {
	return s.Plat.MemReadTime(bytes) + s.Plat.P2PTime(bytes)
}

// CPUBusy implements Store: a memcpy keeps the core active.
func (s MemStore) CPUBusy() bool { return true }

// DiskStore checkpoints to a shared remote disk (the paper's CR-D). The
// disk bandwidth is shared by all concurrent writers, so per-checkpoint
// cost grows linearly with the number of ranks under weak scaling —
// the behaviour the paper measures and projects in Figure 9.
type DiskStore struct {
	Plat *platform.Platform
}

// Name implements Store.
func (s DiskStore) Name() string { return "disk" }

// WriteTime implements Store.
func (s DiskStore) WriteTime(bytes int64, writers int) float64 {
	return s.Plat.DiskWriteTime(bytes, writers)
}

// ReadTime implements Store; restart reads contend the same way but may
// run at their own bandwidth (Platform.DiskReadBandwidth, which defaults
// to the write bandwidth).
func (s DiskStore) ReadTime(bytes int64, readers int) float64 {
	return s.Plat.DiskReadTime(bytes, readers)
}

// CPUBusy implements Store: the core blocks on I/O.
func (s DiskStore) CPUBusy() bool { return false }

// Lossy wraps a Store with error-bounded lossy compression [Tao et al.,
// arXiv:1804.11268]: checkpoint payloads shrink by Ratio before they hit
// the underlying target, so writes (and restart reads) cost a fraction
// of the exact store's. The fidelity price — a restored iterate carrying
// the compressor's pointwise error bound — is modeled by the recovery
// scheme, not here; the store stays a pure cost model like the others.
type Lossy struct {
	Inner Store
	// Ratio is the compression ratio (compressed size = bytes/Ratio).
	// Values <= 1 mean no reduction. SZ-style compressors reach 5-20x on
	// smooth scientific data at a 1e-4 relative error bound.
	Ratio float64
}

// Name implements Store.
func (s Lossy) Name() string { return "lossy-" + s.Inner.Name() }

// compressed returns the on-target payload size, never below one byte so
// degenerate ratios cannot make a checkpoint free.
func (s Lossy) compressed(bytes int64) int64 {
	if s.Ratio <= 1 {
		return bytes
	}
	cb := int64(float64(bytes) / s.Ratio)
	if cb < 1 {
		cb = 1
	}
	return cb
}

// WriteTime implements Store: the compressed payload pays the inner cost.
func (s Lossy) WriteTime(bytes int64, writers int) float64 {
	return s.Inner.WriteTime(s.compressed(bytes), writers)
}

// ReadTime implements Store.
func (s Lossy) ReadTime(bytes int64, readers int) float64 {
	return s.Inner.ReadTime(s.compressed(bytes), readers)
}

// CPUBusy implements Store: compression/decompression shares the inner
// store's transfer character (SZ throughput far exceeds disk bandwidth,
// so the transfer still dominates).
func (s Lossy) CPUBusy() bool { return s.Inner.CPUBusy() }

// YoungInterval returns Young's first-order optimal checkpoint interval
// [Young 1974]: I = sqrt(2 * tC * MTBF), all in seconds.
func YoungInterval(tC, mtbf float64) float64 {
	if tC <= 0 || mtbf <= 0 {
		panic(fmt.Sprintf("checkpoint: YoungInterval tC=%g mtbf=%g", tC, mtbf))
	}
	return math.Sqrt(2 * tC * mtbf)
}

// DalyInterval returns Daly's higher-order estimate [Daly 2006]:
//
//	I = sqrt(2 tC M) * (1 + sqrt(tC/(2M))/3 + tC/(9*2M)) - tC   for tC < 2M
//	I = M                                                        otherwise
func DalyInterval(tC, mtbf float64) float64 {
	if tC <= 0 || mtbf <= 0 {
		panic(fmt.Sprintf("checkpoint: DalyInterval tC=%g mtbf=%g", tC, mtbf))
	}
	if tC >= 2*mtbf {
		return mtbf
	}
	r := math.Sqrt(tC / (2 * mtbf))
	return math.Sqrt(2*tC*mtbf)*(1+r/3+r*r/9) - tC
}

// IntervalIters converts a time interval into a whole number of solver
// iterations (at least 1) given the measured per-iteration time.
func IntervalIters(intervalSec, iterSec float64) int {
	if iterSec <= 0 {
		panic(fmt.Sprintf("checkpoint: IntervalIters iterSec=%g", iterSec))
	}
	n := int(math.Round(intervalSec / iterSec))
	if n < 1 {
		n = 1
	}
	return n
}

// Policy decides when to checkpoint, in iterations.
type Policy struct {
	// EveryIters checkpoints after every EveryIters solver iterations.
	EveryIters int
}

// FixedPolicy checkpoints every n iterations (the paper's Section 5.2
// uses n = 100).
func FixedPolicy(n int) Policy {
	if n < 1 {
		panic(fmt.Sprintf("checkpoint: FixedPolicy n=%d", n))
	}
	return Policy{EveryIters: n}
}

// YoungPolicy derives the interval from Young's formula (the paper's
// Section 5.3 onward), given the per-checkpoint cost, the MTBF, and the
// per-iteration time, all in seconds.
func YoungPolicy(tC, mtbf, iterSec float64) Policy {
	return Policy{EveryIters: IntervalIters(YoungInterval(tC, mtbf), iterSec)}
}

// DalyPolicy derives the interval from Daly's formula (extension beyond
// the paper, used by the ablation benches).
func DalyPolicy(tC, mtbf, iterSec float64) Policy {
	return Policy{EveryIters: IntervalIters(DalyInterval(tC, mtbf), iterSec)}
}

// Due reports whether a checkpoint should be taken at the end of the
// given iteration (1-based count of completed iterations).
func (p Policy) Due(completedIters int) bool {
	return p.EveryIters > 0 && completedIters > 0 && completedIters%p.EveryIters == 0
}
