package projection

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestProjectPinned pins every row of the default projection to the bit
// (an FNV-64a hash over scheme names and row values): the CR rows priced
// from core's checkpoint stores and the CG iteration time shared with
// core must give what the hand-priced rows gave.
func TestProjectPinned(t *testing.T) {
	rows, err := Project(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rows {
		h.Write([]byte(r.Scheme))
		for _, v := range []float64{float64(r.N), r.MTBFHours, r.TResNorm, r.EResNorm, r.PNorm} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); len(rows) != 32 || got != 0xc617dff2bb575ff5 {
		t.Errorf("%d rows hash %016x, want 32 rows hash c617dff2bb575ff5", len(rows), got)
	}
}

func TestProjectDefaultTrends(t *testing.T) {
	cfg := DefaultConfig()
	rows, err := Project(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*len(cfg.Sizes) {
		t.Fatalf("got %d rows", len(rows))
	}
	series := map[string][]Row{}
	for _, r := range rows {
		series[r.Scheme] = append(series[r.Scheme], r)
	}

	// Paper's Figure 9 trends.
	// RD: flat, zero time overhead, E_res = 1 everywhere, P = 2.
	for _, r := range series["RD"] {
		if r.TResNorm != 0 || r.EResNorm != 1 || r.PNorm != 2 {
			t.Errorf("RD at N=%d: %+v", r.N, r)
		}
	}
	// MTBF decreases with size.
	for i := 1; i < len(series["RD"]); i++ {
		if series["RD"][i].MTBFHours >= series["RD"][i-1].MTBFHours {
			t.Error("system MTBF must decrease with size")
		}
	}
	// CR-D: overhead grows with system size, and grows faster than FW at
	// the largest sizes.
	crd := series["CR-D"]
	fw := series["FW"]
	last := len(crd) - 1
	if crd[last].TResNorm <= crd[0].TResNorm {
		t.Error("CR-D overhead must grow")
	}
	if crd[last].TResNorm <= fw[last].TResNorm {
		t.Errorf("CR-D (%g) must exceed FW (%g) at the largest size",
			crd[last].TResNorm, fw[last].TResNorm)
	}
	// FW: overhead grows with size.
	if fw[last].TResNorm <= fw[0].TResNorm {
		t.Error("FW overhead must grow")
	}
	// CR-M: stays far below CR-D everywhere.
	for i, r := range series["CR-M"] {
		if r.TResNorm > crd[i].TResNorm {
			t.Errorf("CR-M above CR-D at N=%d", r.N)
		}
	}
	if series["CR-M"][last].TResNorm > 0.2 {
		t.Errorf("CR-M overhead %g should stay small", series["CR-M"][last].TResNorm)
	}
	// Power of FW and CR-D drops below baseline at the largest sizes
	// (recovery at reduced power dominates).
	if fw[last].PNorm >= 1 || crd[last].PNorm >= 1 {
		t.Errorf("FW/CR-D power must drop: %g, %g", fw[last].PNorm, crd[last].PNorm)
	}
	// Monotone growth of E_res for CR-D.
	for i := 1; i < len(crd); i++ {
		if crd[i].EResNorm < crd[i-1].EResNorm-1e-12 {
			t.Error("CR-D E_res must be non-decreasing")
		}
	}
}

func TestProjectValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NNZPerProc = 0
	if _, err := Project(cfg); err == nil {
		t.Error("invalid config accepted")
	}
	cfg = DefaultConfig()
	cfg.Sizes = []int{0}
	if _, err := Project(cfg); err == nil {
		t.Error("invalid size accepted")
	}
}

func TestProjectDVFSLowersFWEnergy(t *testing.T) {
	on := DefaultConfig()
	on.DVFS = true
	off := DefaultConfig()
	off.DVFS = false
	ron, err := Project(on)
	if err != nil {
		t.Fatal(err)
	}
	roff, err := Project(off)
	if err != nil {
		t.Fatal(err)
	}
	// Compare FW E_res at the largest size: DVFS must not increase it.
	var eOn, eOff float64
	for _, r := range ron {
		if r.Scheme == "FW" {
			eOn = r.EResNorm
		}
	}
	for _, r := range roff {
		if r.Scheme == "FW" {
			eOff = r.EResNorm
		}
	}
	if eOn > eOff {
		t.Errorf("DVFS increased projected FW energy: %g > %g", eOn, eOff)
	}
}
