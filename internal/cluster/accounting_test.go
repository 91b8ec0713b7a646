package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resilience/internal/platform"
	"resilience/internal/power"
)

// The equivalence test below drives a seeded random program of every
// accounting operation through the runtime and compares what it meters
// with a reference computed here, straight from the Platform formulas
// and the meter's documented coalescing rule. The runtime derives its
// watts, flop rate and message and collective costs once, when a Comm, a
// halo plan or a frequency is set up; the reference derives every one
// per event, so the two agree bit for bit only if precomputing moved no
// float operation.

// acctOp is one step of the program: a kind, and per rank the operand
// (flops, a duration, a frequency, a phase index or a wait mode).
type acctOp struct {
	kind int
	arg  []float64
}

const (
	opCompute = iota
	opActive
	opIdle
	opFreq
	opPhase
	opEmptyPhase // a phase that records nothing
	opWaitIdle
	opHalo
	opBarrier
	numAcctOps
)

var acctPhases = []string{"solve", "checkpoint", "reconstruct"}

// acctNeed is how many values rank r needs from peer o.
func acctNeed(r, o int) int { return 1 + (3*r+o)%4 }

func acctProgram(rng *rand.Rand, p, steps int) []acctOp {
	prog := make([]acctOp, steps)
	for s := range prog {
		op := acctOp{kind: rng.Intn(numAcctOps), arg: make([]float64, p)}
		for r := range op.arg {
			switch op.kind {
			case opCompute:
				op.arg[r] = float64(rng.Intn(1_000_000))
			case opActive, opIdle:
				op.arg[r] = rng.Float64() * 1e-3
			case opFreq:
				op.arg[r] = 1 + 1.5*rng.Float64() // on and off the ladder, inside and outside it
			case opPhase:
				op.arg[r] = float64(rng.Intn(len(acctPhases)))
			case opWaitIdle:
				op.arg[r] = float64(rng.Intn(2))
			}
		}
		prog[s] = op
	}
	return prog
}

// acctPeers is every other rank, ascending: the all-to-all halo.
func acctPeers(r, p int) []int {
	var peers []int
	for o := 0; o < p; o++ {
		if o != r {
			peers = append(peers, o)
		}
	}
	return peers
}

// runAcct runs the program on the runtime and returns each rank's final
// clock and the meter.
func runAcct(t *testing.T, p int, prog []acctOp) ([]float64, *power.Meter) {
	t.Helper()
	meter := power.NewMeter(true)
	clocks := make([]float64, p)
	_, err := Run(p, platform.Default(), meter, func(c *Comm) error {
		r := c.Rank()
		peers := acctPeers(r, p)
		need := make([][]int, len(peers))
		for i, o := range peers {
			need[i] = make([]int, acctNeed(r, o))
		}
		h, _ := c.NewHalo(1, peers, need)
		for _, op := range prog {
			a := op.arg[r]
			switch op.kind {
			case opCompute:
				c.Compute(int64(a))
			case opActive:
				c.ElapseActive(a)
			case opIdle:
				c.ElapseIdle(a)
			case opFreq:
				c.SetFreq(a)
			case opPhase:
				c.SetPhase(acctPhases[int(a)])
			case opEmptyPhase:
				prev := c.SetPhase("empty")
				c.ElapseActive(0)
				c.Compute(0)
				c.SetPhase(prev)
			case opWaitIdle:
				c.SetWaitIdle(a != 0)
			case opHalo:
				h.Send()
				for i := range peers {
					h.Recv(i)
				}
			case opBarrier:
				c.Barrier()
			}
		}
		clocks[r] = c.Clock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return clocks, meter
}

// refRank is the reference's state of one rank.
type refRank struct {
	clock, freq float64
	phase       string
	waitIdle    bool
	energy      float64
	phases      []string // in first-record order
	byPhase     map[string]float64
	segs        []power.Segment
}

type refRun struct {
	plat  *platform.Platform
	ranks []refRank
}

func (m *refRun) record(r int, dur, watts float64) {
	if dur == 0 {
		return
	}
	k := &m.ranks[r]
	e := watts * dur
	k.energy += e
	if _, ok := k.byPhase[k.phase]; !ok {
		k.phases = append(k.phases, k.phase)
	}
	k.byPhase[k.phase] += e
	if n := len(k.segs); n > 0 {
		last := &k.segs[n-1]
		if last.Phase == k.phase && last.Watts == watts && math.Abs(last.End()-k.clock) < 1e-12 {
			last.Dur += dur
			k.clock += dur
			return
		}
	}
	k.segs = append(k.segs, power.Segment{Core: r, Phase: k.phase, Start: k.clock, Dur: dur, Watts: watts})
	k.clock += dur
}

func (m *refRun) waitUntil(r int, t float64) {
	k := &m.ranks[r]
	if t <= k.clock {
		return
	}
	w := m.plat.PowerActive(k.freq)
	if k.waitIdle {
		w = m.plat.PowerIdle(k.freq)
	}
	m.record(r, t-k.clock, w)
}

// exchange is one round of blocking sends to every peer in order, then
// the receives in order, each message n(from, to) values long: the
// halo's need-list setup and every halo exchange alike.
func (m *refRun) exchange(n func(from, to int) int) {
	p := len(m.ranks)
	arrive := make([][]float64, p) // arrive[from][to]
	for r := range m.ranks {
		arrive[r] = make([]float64, p)
		for _, o := range acctPeers(r, p) {
			m.record(r, m.plat.P2PTime(int64(8*n(r, o))), m.plat.PowerActive(m.ranks[r].freq))
			arrive[r][o] = m.ranks[r].clock
		}
	}
	for r := range m.ranks {
		for _, o := range acctPeers(r, p) {
			m.waitUntil(r, arrive[o][r])
		}
	}
}

func refAcct(p int, prog []acctOp) refRun {
	plat := platform.Default()
	m := refRun{plat: plat, ranks: make([]refRank, p)}
	for r := range m.ranks {
		m.ranks[r] = refRank{freq: plat.FreqMax, phase: "solve", byPhase: map[string]float64{}}
	}
	m.exchange(func(from, to int) int { return acctNeed(from, to) })
	for _, op := range prog {
		switch op.kind {
		case opHalo:
			// Rank r's slot for o carries what o needs from r.
			m.exchange(func(from, to int) int { return acctNeed(to, from) })
			continue
		case opBarrier:
			tmax := 0.0
			for r := range m.ranks {
				tmax = math.Max(tmax, m.ranks[r].clock)
			}
			for r := range m.ranks {
				m.waitUntil(r, tmax)
				m.record(r, plat.CollectiveTime(8, p), plat.PowerActive(m.ranks[r].freq))
			}
			continue
		}
		for r := range m.ranks {
			k, a := &m.ranks[r], op.arg[r]
			switch op.kind {
			case opCompute:
				m.record(r, plat.ComputeTime(int64(a), k.freq), plat.PowerActive(k.freq))
			case opActive:
				m.record(r, a, plat.PowerActive(k.freq))
			case opIdle:
				m.record(r, a, plat.PowerIdle(k.freq))
			case opFreq:
				if f := plat.ClampFreq(a); f != k.freq {
					m.record(r, plat.DVFSLatency, math.Min(plat.PowerIdle(k.freq), plat.PowerIdle(f)))
					k.freq = f
				}
			case opPhase:
				k.phase = acctPhases[int(a)]
			case opWaitIdle:
				k.waitIdle = a != 0
			}
		}
	}
	return m
}

// TestAccountingMatchesPlatformFormulas compares the clocks, the total
// and per-phase energy (keys included) and the retained segments of
// seeded random programs, on 1 to 4 ranks, bit for bit against the
// reference.
func TestAccountingMatchesPlatformFormulas(t *testing.T) {
	for p := 1; p <= 4; p++ {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("p%d/seed%d", p, seed), func(t *testing.T) {
				prog := acctProgram(rand.New(rand.NewSource(seed*10+int64(p))), p, 200)
				clocks, meter := runAcct(t, p, prog)
				ref := refAcct(p, prog)

				var total float64
				byPhase := map[string]float64{}
				var segs []power.Segment
				for r, k := range ref.ranks {
					if math.Float64bits(clocks[r]) != math.Float64bits(k.clock) {
						t.Errorf("rank %d clock %x, want %x", r, clocks[r], k.clock)
					}
					total += k.energy
					for _, ph := range k.phases {
						byPhase[ph] += k.byPhase[ph]
					}
					segs = append(segs, k.segs...)
				}
				if got := meter.TotalEnergy(); math.Float64bits(got) != math.Float64bits(total) {
					t.Errorf("total energy %x, want %x", got, total)
				}
				gotPhase := meter.EnergyByPhase()
				if len(gotPhase) != len(byPhase) {
					t.Errorf("energy by phase %v, want %v", gotPhase, byPhase)
				}
				for ph, e := range byPhase {
					if got, ok := gotPhase[ph]; !ok || math.Float64bits(got) != math.Float64bits(e) {
						t.Errorf("phase %q energy %x, want %x", ph, got, e)
					}
				}
				got := meter.Segments()
				if len(got) != len(segs) {
					t.Fatalf("%d segments, want %d", len(got), len(segs))
				}
				for i := range segs {
					if segBits(got[i]) != segBits(segs[i]) {
						t.Fatalf("segment %d is %+v, want %+v", i, got[i], segs[i])
					}
				}
			})
		}
	}
}

// segBits renders a segment with its floats as bit patterns.
func segBits(s power.Segment) string {
	return fmt.Sprintf("%d %s %x %x %x", s.Core, s.Phase,
		math.Float64bits(s.Start), math.Float64bits(s.Dur), math.Float64bits(s.Watts))
}
