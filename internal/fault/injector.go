package fault

import (
	"fmt"
	"math/rand"
	"sort"
)

// Injector decides when faults strike a run. Check is called once per
// solver iteration, at a point where all ranks hold identical virtual
// clocks (immediately after a collective), so every rank reaches the same
// decision without extra communication.
//
// Implementations must be deterministic functions of (iter, clock) and
// their seed.
type Injector interface {
	// Check returns the fault striking at this iteration, or nil.
	Check(iter int, clock float64) *Fault
}

// Evenly places count faults the paper's Section 5.2 way: "10 faults are
// inserted evenly over the iterations required by the fault free
// execution (no more faults inserted after the fault free execution
// converges)". The faults fall at evenly spaced iterations of [1,
// ffIters], each on a deterministic pseudo-random rank in [0, ranks)
// drawn from seed, with the class cycling through classes (one class for
// a uniform workload; several for a mix such as mostly node failures with
// an occasional system-wide outage).
func Evenly(count, ffIters, ranks int, seed int64, classes ...Class) []Fault {
	if count < 0 || ffIters <= 0 || ranks <= 0 || len(classes) == 0 {
		panic(fmt.Sprintf("fault: bad even placement count=%d ffIters=%d ranks=%d classes=%v",
			count, ffIters, ranks, classes))
	}
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, 0, count)
	for i := 1; i <= count; i++ {
		iter := i * ffIters / (count + 1)
		if iter < 1 {
			iter = 1
		}
		faults = append(faults, Fault{
			Class: classes[(i-1)%len(classes)],
			Rank:  rng.Intn(ranks),
			Iter:  iter,
		})
	}
	return faults
}

// Schedule injects exactly the given faults at their iterations and
// ranks.
type Schedule struct {
	faults []Fault
	next   int
}

// NewSchedule schedules the given faults: an Evenly placement, or the
// explicit list of a chaos scenario, whose fault placement is part of the
// scenario. Faults are ordered stably by iteration; several faults at the
// same iteration fire on consecutive Check calls, which the solver
// boundary drains back-to-back — the "fault during recovery" case.
func NewSchedule(faults []Fault) *Schedule {
	fs := make([]Fault, len(faults))
	copy(fs, faults)
	for _, f := range fs {
		if f.Iter < 1 || f.Rank < 0 {
			panic(fmt.Sprintf("fault: bad scheduled fault %v (need Iter >= 1, Rank >= 0)", f))
		}
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Iter < fs[j].Iter })
	return &Schedule{faults: fs}
}

// Check implements Injector. Multiple faults scheduled for the same
// iteration fire on consecutive Check calls.
func (s *Schedule) Check(iter int, clock float64) *Fault {
	if s.next >= len(s.faults) {
		return nil
	}
	f := s.faults[s.next]
	if iter < f.Iter {
		return nil
	}
	s.next++
	out := f
	out.Iter = iter
	out.Time = clock
	return &out
}

// Poisson injects faults as a Poisson process in virtual time with the
// given MTBF, the paper's Section 5.3 / Figure 3 protocol.
type Poisson struct {
	mtbf  float64 // seconds
	ranks int
	class Class
	rng   *rand.Rand
	next  float64
	fired int
	limit int // stop after this many faults; <0 unbounded
}

// NewPoisson draws exponential interarrivals with mean mtbfSeconds.
func NewPoisson(mtbfSeconds float64, ranks int, class Class, seed int64) *Poisson {
	if mtbfSeconds <= 0 || ranks <= 0 {
		panic(fmt.Sprintf("fault: bad poisson mtbf=%g ranks=%d", mtbfSeconds, ranks))
	}
	p := &Poisson{mtbf: mtbfSeconds, ranks: ranks, class: class,
		rng: rand.New(rand.NewSource(seed)), limit: -1}
	p.next = p.rng.ExpFloat64() * p.mtbf
	return p
}

// WithLimit caps the number of injected faults and returns p.
func (p *Poisson) WithLimit(n int) *Poisson {
	p.limit = n
	return p
}

// Check implements Injector. At most one fault is reported per iteration;
// if several arrivals fall inside one iteration they fire on subsequent
// iterations (back-to-back faults).
func (p *Poisson) Check(iter int, clock float64) *Fault {
	if p.limit >= 0 && p.fired >= p.limit {
		return nil
	}
	if clock < p.next {
		return nil
	}
	f := &Fault{
		Class: p.class,
		Rank:  p.rng.Intn(p.ranks),
		Iter:  iter,
		Time:  clock,
	}
	p.next += p.rng.ExpFloat64() * p.mtbf
	p.fired++
	return f
}
