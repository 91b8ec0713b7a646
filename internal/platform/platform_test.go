package platform

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if perNode := p.SocketsPerNode * p.CoresPerSocket; perNode != 24 || p.Nodes*perNode != 192 {
		t.Errorf("paper cluster has 8 nodes of 24 cores, got %d of %d", p.Nodes, perNode)
	}
}

func TestFreqLadder(t *testing.T) {
	p := Default()
	steps := math.Round((p.FreqMax-p.FreqMin)/p.FreqStep) + 1
	if steps != 12 { // 1.2 .. 2.3 in 0.1 steps
		t.Fatalf("ladder has %g steps", steps)
	}
	if p.FreqMin != 1.2 || p.FreqMax != 2.3 {
		t.Errorf("ladder endpoints %g..%g", p.FreqMin, p.FreqMax)
	}
}

func TestClampFreq(t *testing.T) {
	p := Default()
	cases := []struct{ in, want float64 }{
		{0.5, 1.2}, {1.2, 1.2}, {1.24, 1.2}, {1.26, 1.3},
		{2.3, 2.3}, {9.9, 2.3}, {1.75, 1.8},
	}
	for _, c := range cases {
		if got := p.ClampFreq(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ClampFreq(%g)=%g want %g", c.in, got, c.want)
		}
	}
}

// TestPowerCurveCalibration verifies the paper's Section 4.2 node-power
// ratios: 1 active + 23 idle cores at f_max ≈ 0.75x of all-active; idle
// cores parked at f_min ≈ 0.45x.
func TestPowerCurveCalibration(t *testing.T) {
	p := Default()
	full := 24 * p.PowerActive(p.FreqMax)
	noDVFS := (p.PowerActive(p.FreqMax) + 23*p.PowerIdle(p.FreqMax)) / full
	dvfs := (p.PowerActive(p.FreqMax) + 23*p.PowerIdle(p.FreqMin)) / full
	if math.Abs(noDVFS-0.75) > 0.03 {
		t.Errorf("no-DVFS reconstruction ratio %.3f, paper ~0.75", noDVFS)
	}
	if math.Abs(dvfs-0.45) > 0.03 {
		t.Errorf("DVFS reconstruction ratio %.3f, paper ~0.45", dvfs)
	}
}

// Property: power curves are monotone in frequency, idle < active, and
// rates scale linearly.
func TestQuickPowerMonotone(t *testing.T) {
	p := Default()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		fa := p.FreqMin + math.Mod(math.Abs(a), p.FreqMax-p.FreqMin)
		span := p.FreqMax - fa
		if span <= 0 {
			return true
		}
		fb := fa + math.Mod(math.Abs(b), span)
		if p.PowerActive(fa) > p.PowerActive(fb)+1e-12 {
			return false
		}
		if p.PowerIdle(fa) > p.PowerIdle(fb)+1e-12 {
			return false
		}
		if p.PowerIdle(fa) >= p.PowerActive(fa) {
			return false
		}
		return p.Rate(fb) >= p.Rate(fa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestComputeTime(t *testing.T) {
	p := Default()
	if p.ComputeTime(0, p.FreqMax) != 0 || p.ComputeTime(-5, p.FreqMax) != 0 {
		t.Error("non-positive flops must cost zero")
	}
	t1 := p.ComputeTime(1e9, p.FreqMax)
	t2 := p.ComputeTime(1e9, p.FreqMin)
	if t2 <= t1 {
		t.Error("lower frequency must be slower")
	}
	// Linear frequency scaling.
	want := t1 * p.FreqMax / p.FreqMin
	if math.Abs(t2-want) > 1e-12*want {
		t.Errorf("rate scaling: %g want %g", t2, want)
	}
}

func TestNetworkCosts(t *testing.T) {
	p := Default()
	if p.P2PTime(0) != p.NetLatency {
		t.Error("zero-byte message must cost latency")
	}
	if p.P2PTime(1<<20) <= p.P2PTime(1) {
		t.Error("bigger messages must cost more")
	}
	if p.CollectiveTime(8, 1) != 0 {
		t.Error("single-rank collective must be free")
	}
	// Tree depth: doubling ranks adds at most one stage.
	c16 := p.CollectiveTime(8, 16)
	c32 := p.CollectiveTime(8, 32)
	if c32 <= c16 || c32 > 2*c16 {
		t.Errorf("collective scaling: %g -> %g", c16, c32)
	}
}

func TestStorageCosts(t *testing.T) {
	p := Default()
	// Disk bandwidth is shared: doubling writers doubles per-rank time
	// (minus the constant latency).
	w1 := p.DiskWriteTime(1<<20, 1) - p.DiskLatency
	w2 := p.DiskWriteTime(1<<20, 2) - p.DiskLatency
	if math.Abs(w2-2*w1) > 1e-12 {
		t.Errorf("disk contention: %g vs 2*%g", w2, w1)
	}
	if p.DiskWriteTime(1, 0) <= 0 {
		t.Error("writers<1 must clamp, not panic")
	}
	if p.MemWriteTime(1<<20) >= w1 {
		t.Error("memory checkpoint must be cheaper than disk")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Platform){
		func(p *Platform) { p.Nodes = 0 },
		func(p *Platform) { p.FreqStep = 0 },
		func(p *Platform) { p.FreqMax = p.FreqMin - 1 },
		func(p *Platform) { p.FlopRate = 0 },
		func(p *Platform) { p.NetBandwidth = 0 },
		func(p *Platform) { p.DiskBandwidth = -1 },
		func(p *Platform) { p.PCoreMax = 0 },
	}
	for i, mutate := range bad {
		p := Default()
		mutate(p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDiskReadTime(t *testing.T) {
	p := Default()
	// Unset read bandwidth defaults to the write bandwidth: reads and
	// writes cost exactly the same (the seed behavior, byte-identical).
	for _, readers := range []int{1, 2, 17, 192} {
		if r, w := p.DiskReadTime(1<<20, readers), p.DiskWriteTime(1<<20, readers); r != w {
			t.Errorf("readers=%d: DiskReadTime %g != DiskWriteTime %g with default read bandwidth", readers, r, w)
		}
	}
	if p.DiskReadTime(1, 0) <= 0 {
		t.Error("readers<1 must clamp, not panic")
	}
	// A dedicated read bandwidth decouples the two: doubling it halves
	// the transfer term.
	p.DiskReadBandwidth = 2 * p.DiskBandwidth
	r := p.DiskReadTime(1<<20, 4) - p.DiskLatency
	w := p.DiskWriteTime(1<<20, 4) - p.DiskLatency
	if math.Abs(r-w/2) > 1e-12 {
		t.Errorf("doubled read bandwidth: read %g want %g", r, w/2)
	}
	// Contention still divides the read bandwidth across readers.
	r1 := p.DiskReadTime(1<<20, 1) - p.DiskLatency
	r2 := p.DiskReadTime(1<<20, 2) - p.DiskLatency
	if math.Abs(r2-2*r1) > 1e-12 {
		t.Errorf("disk read contention: %g vs 2*%g", r2, r1)
	}
	p.DiskReadBandwidth = -1
	if p.Validate() == nil {
		t.Error("negative read bandwidth accepted")
	}
}
