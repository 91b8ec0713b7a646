// Package fault provides the fault taxonomy of the paper's Section 2.1,
// MTBF estimation and projection (Figure 1), and fault injectors used by
// the resilient solver experiments (Section 5).
//
// Soft faults: Detected and Corrected Error (DCE), Detected but
// Uncorrected Error (DUE), Silent Data Corruption (SDC). Hard faults:
// System-Wide Outage (SWO), Single Node Failure (SNF), Link and Node
// Failure (LNF).
//
// The injected effect in all solver experiments follows the paper: the
// dynamic data x_{p_i} of one process is lost (hard fault) or corrupted
// (soft fault); static data A, b and the environment are assumed to be
// restored immediately (Section 3.2).
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Class is a fault classification.
type Class int

// Fault classes, in the order the paper lists them.
const (
	DCE Class = iota // detected and corrected error (soft)
	DUE              // detected but uncorrected error (soft)
	SDC              // silent data corruption (soft)
	SWO              // system-wide outage (hard)
	SNF              // single node failure (hard)
	LNF              // link and node failure (hard)
)

var classNames = [...]string{"DCE", "DUE", "SDC", "SWO", "SNF", "LNF"}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// IsSoft reports whether the class is a soft fault.
func (c Class) IsSoft() bool { return c == DCE || c == DUE || c == SDC }

// Classes returns all classes in presentation order.
func Classes() []Class { return []Class{DCE, DUE, SDC, SWO, SNF, LNF} }

// Fault is one injected fault event.
type Fault struct {
	Class Class
	Rank  int     // the process whose x block is affected
	Iter  int     // solver iteration at which it strikes
	Time  float64 // virtual time at which it strikes (seconds)
}

func (f Fault) String() string {
	return fmt.Sprintf("%s on rank %d at iter %d (t=%.3gs)", f.Class, f.Rank, f.Iter, f.Time)
}

// Effect describes what a fault does to the owned block of x.
type Effect int

const (
	// EffectLose zeroes the block and marks it lost — the hard-fault /
	// DUE case where the data is simply gone.
	EffectLose Effect = iota
	// EffectCorrupt perturbs the block with large-magnitude noise — the
	// SDC case where the data is silently wrong.
	EffectCorrupt
)

// EffectOf maps a fault class to its effect on dynamic data.
func EffectOf(c Class) Effect {
	if c == SDC || c == DCE {
		return EffectCorrupt
	}
	return EffectLose
}

// Apply destroys or corrupts the block in place according to the effect.
// The RNG makes corruption deterministic per fault.
func Apply(e Effect, block []float64, rng *rand.Rand) {
	switch e {
	case EffectLose:
		for i := range block {
			block[i] = 0
		}
	case EffectCorrupt:
		// Multi-bit upsets: scale and flip signs of a random subset, and
		// inject a few large outliers.
		for i := range block {
			switch rng.Intn(4) {
			case 0:
				block[i] = -block[i] * (1 + 10*rng.Float64())
			case 1:
				block[i] *= 1e6 * (rng.Float64() - 0.5)
			}
		}
		if len(block) > 0 {
			block[rng.Intn(len(block))] = 1e12 * (rng.Float64() - 0.5)
		}
	default:
		panic(fmt.Sprintf("fault: unknown effect %d", int(e)))
	}
}

// --- MTBF estimation (Figure 1) -------------------------------------

// Tech identifies the node technology generation used in the Figure 1
// projection.
type Tech int

const (
	// TechPetascale is "today's technology" in the paper: a petascale
	// machine of 20K compute nodes.
	TechPetascale Tech = iota
	// TechExascale is the projected 11 nm technology: 1M compute nodes,
	// with per-node reliability degraded by miniaturization and low-power
	// operation (Section 2.1, [5, 38]).
	TechExascale
)

// PetascaleNodes and ExascaleNodes are the system sizes the paper assumes.
const (
	PetascaleNodes = 20_000
	ExascaleNodes  = 1_000_000
)

// nodeMTBFHours gives per-node MTBF in hours for petascale-generation
// nodes, per fault class. The constants are calibrated so the projected
// system-level MTBFs land where the paper's Figure 1 puts them: hard
// failures every 1–7 days at petascale and within an hour at exascale.
var nodeMTBFHours = map[Class]float64{
	DCE: 50_000,     // corrected errors: every couple hours system-wide at petascale
	DUE: 500_000,    // uncorrected errors: roughly daily at petascale
	SDC: 1_000_000,  // silent corruptions: every ~2 days at petascale
	SWO: 14_400_000, // system-wide outages: monthly at petascale
	SNF: 2_000_000,  // node failures: every ~4 days at petascale
	LNF: 4_000_000,  // link+node failures: every ~8 days at petascale
}

// techDegradation is the per-node MTBF divisor when moving to 11 nm
// exascale technology. Soft faults worsen faster than hard faults with
// feature-size miniaturization and near-threshold operation.
func techDegradation(c Class, t Tech) float64 {
	if t == TechPetascale {
		return 1
	}
	if c.IsSoft() {
		return 4
	}
	return 2
}

// NodeMTBF returns the per-node MTBF in hours for a class and technology.
func NodeMTBF(c Class, t Tech) float64 {
	base, ok := nodeMTBFHours[c]
	if !ok {
		panic(fmt.Sprintf("fault: no MTBF table entry for %v", c))
	}
	return base / techDegradation(c, t)
}

// SystemMTBF returns the system-level MTBF in hours for `nodes` nodes,
// assuming independent exponential failures (system rate = sum of node
// rates), the method of [19, 38] the paper adopts.
func SystemMTBF(c Class, nodes int, t Tech) float64 {
	if nodes <= 0 {
		panic(fmt.Sprintf("fault: SystemMTBF with %d nodes", nodes))
	}
	return NodeMTBF(c, t) / float64(nodes)
}

// CombinedSystemMTBF aggregates all classes: rates add.
func CombinedSystemMTBF(nodes int, t Tech) float64 {
	var rate float64
	for _, c := range Classes() {
		rate += 1 / SystemMTBF(c, nodes, t)
	}
	return 1 / rate
}

// Fig1Row is one row of the Figure 1 projection.
type Fig1Row struct {
	Class          Class
	PetascaleHours float64 // system MTBF, 20K nodes, today's technology
	ExascaleHours  float64 // system MTBF, 1M nodes, 11nm technology
}

// ProjectFig1 reproduces Figure 1: estimated system MTBF per fault class
// for a petascale and an exascale machine.
func ProjectFig1() []Fig1Row {
	rows := make([]Fig1Row, 0, len(classNames))
	for _, c := range Classes() {
		rows = append(rows, Fig1Row{
			Class:          c,
			PetascaleHours: SystemMTBF(c, PetascaleNodes, TechPetascale),
			ExascaleHours:  SystemMTBF(c, ExascaleNodes, TechExascale),
		})
	}
	return rows
}

// guard against accidental zero rates in projections.
var _ = math.Inf
