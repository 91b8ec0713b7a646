package service

import (
	"context"
	"sync"
	"time"

	"resilience/internal/obs"
)

// job is one admitted request in flight through the queue and pool.
type job struct {
	req JobRequest
	// reqID is the request's X-Request-Id, carried through the queue so
	// the worker's queue/solve spans attribute to the right request.
	reqID string
	// enqueued stamps admission; the worker records the queue-residency
	// span from it when it picks the job up.
	enqueued time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan jobOutcome // buffered(1): the worker never blocks on it
}

// jobOutcome is what a worker hands back to the waiting handler.
type jobOutcome struct {
	result *JobResult
	rec    *obs.Recorder
	err    error
}

// queue is the bounded admission queue. Admission is non-blocking by
// design: when the queue is full the server answers 429 + Retry-After
// instead of stalling the client — backpressure is explicit, never
// implicit in a hung connection.
type queue struct {
	ch     chan *job
	closed sync.Once
}

func newQueue(capacity int) *queue {
	if capacity < 1 {
		capacity = 1
	}
	return &queue{ch: make(chan *job, capacity)}
}

// tryPush admits j if a slot is free and reports whether it did.
func (q *queue) tryPush(j *job) bool {
	select {
	case q.ch <- j:
		return true
	default:
		return false
	}
}

// depth returns the number of admitted jobs not yet picked up.
func (q *queue) depth() int { return len(q.ch) }

// close stops the workers once the queue drains; a second close does
// nothing. Push after close is a caller bug (the server's admission gate
// makes it impossible).
func (q *queue) close() { q.closed.Do(func() { close(q.ch) }) }
