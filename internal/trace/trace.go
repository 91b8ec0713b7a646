// Package trace records structured per-iteration events of a resilient
// solve — iteration number, virtual clock, relative residual, and fault/
// recovery markers — and exports them as CSV for offline analysis. It is
// the machine-readable companion to the residual-history figures
// (Figure 6 of the paper).
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// EventKind classifies a trace event.
type EventKind int

const (
	// Iteration is a regular solver step record.
	Iteration EventKind = iota
	// FaultEvent marks an injected fault.
	FaultEvent
	// RecoveryEvent marks a completed recovery.
	RecoveryEvent
	// CheckpointEvent marks a checkpoint write.
	CheckpointEvent
	// ConvergedEvent marks termination.
	ConvergedEvent
)

var eventNames = [...]string{"iter", "fault", "recovery", "checkpoint", "converged"}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventNames[k]
}

// Event is one trace record.
type Event struct {
	Kind EventKind
	Iter int
	// Rank is the rank the event concerns: the struck rank for fault and
	// recovery events, 0 for the rank-0-owned iteration and convergence
	// records.
	Rank   int
	Clock  float64 // virtual seconds
	RelRes float64 // relative residual at the boundary (0 when unknown)
	// Detail carries kind-specific information (fault description,
	// checkpoint store, ...).
	Detail string
}

// Trace is an append-only, concurrency-safe event log. Rank goroutines
// may append concurrently; rank 0 conventionally owns iteration records
// so logs stay deduplicated.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Add appends an event.
func (t *Trace) Add(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, e)
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the log.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Filter returns the events of one kind.
func (t *Trace) Filter(kind EventKind) []Event {
	var out []Event
	for _, e := range t.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV emits the full log as CSV with a header row.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "kind,iter,rank,clock,relres,detail"); err != nil {
		return err
	}
	for _, e := range t.Events() {
		detail := e.Detail
		if strings.ContainsAny(detail, ",\"\n") {
			detail = `"` + strings.ReplaceAll(detail, `"`, `""`) + `"`
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.9g,%.9g,%s\n",
			e.Kind, e.Iter, e.Rank, e.Clock, e.RelRes, detail); err != nil {
			return err
		}
	}
	return nil
}

// ResidualSeries extracts (iter, relres) pairs from the iteration events.
func (t *Trace) ResidualSeries() (iters []int, relres []float64) {
	for _, e := range t.Filter(Iteration) {
		iters = append(iters, e.Iter)
		relres = append(relres, e.RelRes)
	}
	return iters, relres
}
