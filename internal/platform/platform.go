// Package platform describes the simulated machine: core counts, the DVFS
// frequency ladder, frequency→power curves, compute rates, network and
// storage parameters. The default configuration reproduces the paper's
// experimental cluster (Section 5.1): 8 dual-socket nodes, 2 × 12-core
// Xeon E5-2670v3 per node, per-core DVFS from 1.2 to 2.3 GHz in 0.1 GHz
// steps.
//
// Power is modeled per core, normalized so that a core active at the
// maximum frequency draws PCoreMax watts:
//
//	P_active(f) = PCoreMax * (ActiveBase + ActiveDyn*(f/fmax)³)
//	P_idle(f)   = PCoreMax * (IdleBase   + IdleDyn  *(f/fmax)²)
//
// The default coefficients are calibrated to the ratios the paper reports
// for reconstruction phases on a 24-core node (Section 4.2): one core
// active at f_max plus 23 idle at f_max draws ≈0.75× of the all-active
// node power; dropping the 23 idle cores to f_min draws ≈0.45×.
package platform

import (
	"fmt"
	"math"
)

// Platform is the simulated machine description. All fields are plain data
// so configurations can be copied and varied freely in sweeps.
type Platform struct {
	Nodes          int
	SocketsPerNode int
	CoresPerSocket int

	// DVFS ladder in GHz.
	FreqMin, FreqMax, FreqStep float64
	// DVFSLatency is the time to switch a core's frequency, seconds.
	DVFSLatency float64

	// FlopRate is the per-core useful flop rate at FreqMax, flops/second,
	// for the sparse kernels under study (memory-bound SpMV rates, not
	// peak). Rates scale linearly with frequency.
	FlopRate float64

	// Network: point-to-point time = NetLatency + bytes/NetBandwidth.
	// Collectives multiply by ceil(log2 P).
	NetLatency   float64 // seconds (alpha)
	NetBandwidth float64 // bytes/second (1/beta)

	// Checkpoint storage. Disk bandwidth is shared across all writers
	// (the paper assumes a shared disk), memory bandwidth is per core.
	DiskBandwidth float64 // bytes/second, aggregate, writes
	// DiskReadBandwidth is the aggregate restart-read bandwidth; zero
	// means "same as DiskBandwidth" (the seed behavior, so existing
	// configurations and golden tables are unchanged).
	DiskReadBandwidth float64 // bytes/second, aggregate, reads
	DiskLatency       float64 // seconds per checkpoint operation
	MemBandwidth      float64 // bytes/second, per core
	// MemReadBandwidth is the per-core restore-read bandwidth; zero means
	// "same as MemBandwidth" (the seed behavior, so existing
	// configurations and golden tables are unchanged).
	MemReadBandwidth float64 // bytes/second, per core, reads

	// Power model (watts per core).
	PCoreMax   float64
	ActiveBase float64
	ActiveDyn  float64
	IdleBase   float64
	IdleDyn    float64
}

// Default returns the paper's cluster. Compute, network and power
// parameters follow the hardware (Section 5.1); the storage constants are
// calibrated so checkpoint costs land at the paper's *relative* magnitude
// (a disk checkpoint costs tens of solver iterations, a memory checkpoint
// well under one) at the scaled-down workload sizes this repository runs.
func Default() *Platform {
	return &Platform{
		Nodes:          8,
		SocketsPerNode: 2,
		CoresPerSocket: 12,
		FreqMin:        1.2,
		FreqMax:        2.3,
		FreqStep:       0.1,
		DVFSLatency:    50e-6,
		FlopRate:       2.0e9,
		NetLatency:     1.5e-6,
		NetBandwidth:   5.0e9,
		DiskBandwidth:  200e6,
		DiskLatency:    500e-6,
		MemBandwidth:   5.0e9,
		PCoreMax:       10.0,
		ActiveBase:     0.45,
		ActiveDyn:      0.55,
		IdleBase:       0.30,
		IdleDyn:        0.44,
	}
}

// ClampFreq snaps f onto the DVFS ladder (clamping to [FreqMin, FreqMax]).
func (p *Platform) ClampFreq(f float64) float64 {
	if f <= p.FreqMin {
		return p.FreqMin
	}
	if f >= p.FreqMax {
		return p.FreqMax
	}
	steps := math.Round((f - p.FreqMin) / p.FreqStep)
	return p.FreqMin + steps*p.FreqStep
}

// Rate returns the flop rate at frequency f (linear frequency scaling).
func (p *Platform) Rate(f float64) float64 {
	return p.FlopRate * f / p.FreqMax
}

// ComputeTime returns the time to execute the given flops at frequency f.
func (p *Platform) ComputeTime(flops int64, f float64) float64 {
	if flops <= 0 {
		return 0
	}
	return float64(flops) / p.Rate(f)
}

// PowerActive returns per-core power when computing at frequency f.
func (p *Platform) PowerActive(f float64) float64 {
	r := f / p.FreqMax
	return p.PCoreMax * (p.ActiveBase + p.ActiveDyn*r*r*r)
}

// PowerIdle returns per-core power when idle (or sleeping in a wait) at
// frequency f.
func (p *Platform) PowerIdle(f float64) float64 {
	r := f / p.FreqMax
	return p.PCoreMax * (p.IdleBase + p.IdleDyn*r*r)
}

// P2PTime returns the point-to-point message time for the given payload.
func (p *Platform) P2PTime(bytes int64) float64 {
	return p.NetLatency + float64(bytes)/p.NetBandwidth
}

// CollectiveTime returns the time of a tree-based collective (allreduce,
// bcast, barrier) over n ranks moving the given payload per stage.
func (p *Platform) CollectiveTime(bytes int64, n int) float64 {
	if n <= 1 {
		return 0
	}
	stages := math.Ceil(math.Log2(float64(n)))
	return stages * (p.NetLatency + float64(bytes)/p.NetBandwidth)
}

// DiskWriteTime returns the time to write the given bytes when `writers`
// ranks share the disk concurrently (bandwidth divides; latency is paid
// once per writer).
func (p *Platform) DiskWriteTime(bytes int64, writers int) float64 {
	if writers < 1 {
		writers = 1
	}
	bw := p.DiskBandwidth / float64(writers)
	return p.DiskLatency + float64(bytes)/bw
}

// DiskReadTime returns the time to read the given bytes when `readers`
// ranks share the disk concurrently. Reads use DiskReadBandwidth, which
// defaults to the write bandwidth when unset.
func (p *Platform) DiskReadTime(bytes int64, readers int) float64 {
	if readers < 1 {
		readers = 1
	}
	bw := p.DiskReadBandwidth
	if bw <= 0 {
		bw = p.DiskBandwidth
	}
	bw /= float64(readers)
	return p.DiskLatency + float64(bytes)/bw
}

// MemWriteTime returns the time to copy the given bytes into a local
// in-memory checkpoint.
func (p *Platform) MemWriteTime(bytes int64) float64 {
	return float64(bytes) / p.MemBandwidth
}

// MemReadTime returns the time to copy the given bytes back out of a
// local in-memory checkpoint. Reads use MemReadBandwidth, which defaults
// to the write bandwidth when unset.
func (p *Platform) MemReadTime(bytes int64) float64 {
	bw := p.MemReadBandwidth
	if bw <= 0 {
		bw = p.MemBandwidth
	}
	return float64(bytes) / bw
}

// Validate reports configuration errors.
func (p *Platform) Validate() error {
	switch {
	case p.Nodes <= 0 || p.SocketsPerNode <= 0 || p.CoresPerSocket <= 0:
		return fmt.Errorf("platform: non-positive core topology %d/%d/%d",
			p.Nodes, p.SocketsPerNode, p.CoresPerSocket)
	case p.FreqMin <= 0 || p.FreqMax < p.FreqMin || p.FreqStep <= 0:
		return fmt.Errorf("platform: bad frequency ladder [%g,%g] step %g",
			p.FreqMin, p.FreqMax, p.FreqStep)
	case p.FlopRate <= 0:
		return fmt.Errorf("platform: non-positive flop rate %g", p.FlopRate)
	case p.NetBandwidth <= 0 || p.NetLatency < 0:
		return fmt.Errorf("platform: bad network parameters alpha=%g bw=%g",
			p.NetLatency, p.NetBandwidth)
	case p.DiskBandwidth <= 0 || p.MemBandwidth <= 0:
		return fmt.Errorf("platform: bad storage bandwidths disk=%g mem=%g",
			p.DiskBandwidth, p.MemBandwidth)
	case p.DiskReadBandwidth < 0:
		return fmt.Errorf("platform: negative disk read bandwidth %g", p.DiskReadBandwidth)
	case p.MemReadBandwidth < 0:
		return fmt.Errorf("platform: negative memory read bandwidth %g", p.MemReadBandwidth)
	case p.PCoreMax <= 0:
		return fmt.Errorf("platform: non-positive core power %g", p.PCoreMax)
	}
	return nil
}
