package obs

import (
	"fmt"
	"io"
	"strings"

	"resilience/internal/fault"
)

// The event log of a run: per-iteration records of a resilient solve —
// iteration number, virtual clock, relative residual — and its fault,
// recovery and convergence markers, exported as CSV for offline analysis.
// It is the machine-readable companion to the residual-history figures
// (Figure 6 of the paper). The log is rank 0's: that rank's goroutine
// appends to it through its own Rank surface, without a lock, like every
// other recording.

// EventKind classifies an event-log entry.
type EventKind uint8

const (
	// Iteration is a regular solver step record.
	Iteration EventKind = iota
	// FaultEvent marks an injected fault.
	FaultEvent
	// RecoveryEvent marks a completed recovery.
	RecoveryEvent
	// ConvergedEvent marks termination.
	ConvergedEvent
)

var eventNames = [...]string{"iter", "fault", "recovery", "converged"}

func (k EventKind) String() string {
	if int(k) >= len(eventNames) {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventNames[k]
}

// Event is one event-log entry. It holds values, not text — the fault
// itself, a static scheme name — so appending to a log grown by an
// earlier run allocates nothing; WriteEventsCSV renders the detail.
type Event struct {
	Kind EventKind
	Iter int
	// Rank is the rank the event concerns: the struck rank for fault and
	// recovery events, 0 for the iteration and convergence records.
	Rank   int
	Clock  float64 // virtual seconds
	RelRes float64 // relative residual at the boundary (0 when unknown)
	// Fault is the injected fault (FaultEvent).
	Fault fault.Fault
	// Scheme is the recovering scheme's name (RecoveryEvent).
	Scheme string
	// Converged is the run's outcome (ConvergedEvent).
	Converged bool
}

// detail renders the kind-specific column of the CSV.
func (e Event) detail() string {
	switch e.Kind {
	case FaultEvent:
		return e.Fault.String()
	case RecoveryEvent:
		return e.Scheme
	case ConvergedEvent:
		return fmt.Sprintf("converged=%t", e.Converged)
	}
	return ""
}

// WriteEventsCSV emits an event log as CSV with a header row.
func WriteEventsCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "kind,iter,rank,clock,relres,detail"); err != nil {
		return err
	}
	for _, e := range events {
		detail := e.detail()
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
