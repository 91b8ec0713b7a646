package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"resilience/internal/fault"
	"resilience/internal/platform"
	"resilience/internal/sparse"
)

const (
	// BaselineCap bounds the fault-free reports one System retains. The
	// key space is client-controlled where a System serves network jobs
	// (tolerance, rank count), so residency is capped instead of trusted
	// to stay small; past the cap the oldest report is recomputed on its
	// next use — a slowdown, never a result change. Sixteen holds every
	// rank count a chaos campaign draws for one grid.
	BaselineCap = 16
	// SystemsCap bounds the Systems a content-addressed table retains.
	SystemsCap = 8
)

// System is one linear system A x = b and the single owner of the
// fault-free baselines computed on it. The paper's protocol (Section 5.2)
// anchors every fault schedule on the fault-free iteration count and
// normalises every result to the fault-free run, so one baseline per
// (system, resolved solver configuration) serves every scheme, seed and
// fault schedule. A and B must not change while the System is in use.
// Safe for concurrent use.
type System struct {
	A *sparse.CSR
	B []float64

	mu        sync.Mutex
	baselines fifo[baselineKey, *baselineCall]
	runs      atomic.Int64
}

// NewSystem wraps a linear system; a and b are shared, not copied.
func NewSystem(a *sparse.CSR, b []float64) *System { return &System{A: a, B: b} }

// baselineKey holds every resolved input the fault-free report depends
// on. The platform is keyed by value: it is plain data, and callers build
// fresh *Platform values freely. Scheme, seed, trace and recorder do not
// reach a fault-free run's report at all.
type baselineKey struct {
	ranks, maxIters int
	tol             float64
	plat            platform.Platform
}

// baselineCall is one baseline run: in flight until done is closed,
// memoised afterwards if it converged.
type baselineCall struct {
	done chan struct{}
	rep  *RunReport
	err  error
	// abandoned marks an error caused by the leader's own context: it
	// says nothing about the waiters, who run the baseline themselves.
	abandoned bool
}

// FaultFree returns the fault-free baseline of the system under cfg's
// resolved ranks, tolerance, iteration cap and platform; every other
// field of cfg is ignored. Concurrent calls for one configuration share
// a single run, and a converged report is memoised, so callers must treat
// it as read-only. Errors are never memoised, and neither is a report
// with Converged false: it is returned for the caller to reject, not kept
// as an anchor. ctx cancels only the caller's own wait or run; a waiter
// whose leader was cancelled retries.
func (s *System) FaultFree(ctx context.Context, cfg RunConfig) (*RunReport, error) {
	ff := RunConfig{
		A: s.A, B: s.B,
		Ranks: cfg.Ranks, Plat: cfg.Plat, Tol: cfg.Tol, MaxIters: cfg.MaxIters,
	}
	if err := ff.resolve(); err != nil {
		return nil, err
	}
	key := baselineKey{
		ranks: ff.Ranks, maxIters: ff.MaxIters, tol: ff.Tol, plat: *ff.Plat,
	}
	for {
		s.mu.Lock()
		c, ok := s.baselines.m[key]
		if !ok {
			c = &baselineCall{done: make(chan struct{})}
			s.baselines.put(key, c, BaselineCap)
			s.mu.Unlock()
			s.lead(ctx, key, c, ff)
			return c.rep, c.err
		}
		s.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: fault-free baseline: %w", ctx.Err())
		}
		if !c.abandoned {
			return c.rep, c.err
		}
	}
}

// Spread installs the paper's Section 5.2 fault protocol on cfg and
// returns the configured run with the baseline it is anchored on. The n
// faults fall evenly over the fault-free iteration count of this system
// under cfg's solver configuration (fault.Evenly: classes cycled, ranks
// drawn from cfg.Seed), and a checkpointing scheme given neither
// CkptEvery nor CkptMTBF takes Young's interval at MTBF = T_ff / n. A
// fault-free scheme gets no faults, so Spread on one returns the checked
// baseline alone. An unconverged baseline is an error: it cannot anchor a
// schedule or an interval. The baseline is shared and read-only.
func (s *System) Spread(ctx context.Context, cfg RunConfig, n int, classes ...fault.Class) (RunConfig, *RunReport, error) {
	ff, err := s.FaultFree(ctx, cfg)
	if err != nil {
		return cfg, nil, fmt.Errorf("fault-free baseline: %w", err)
	}
	if !ff.Converged {
		return cfg, nil, fmt.Errorf("fault-free baseline did not converge (relres %g after %d iters)", ff.RelRes, ff.Iters)
	}
	cfg.A, cfg.B = s.A, s.B
	if cfg.Scheme.Kind == FF {
		return cfg, ff, nil
	}
	if n < 0 || len(classes) == 0 || ff.Iters < 1 {
		return cfg, nil, fmt.Errorf("core: cannot spread %d faults of classes %v over %d fault-free iterations", n, classes, ff.Iters)
	}
	faults := fault.Evenly(n, ff.Iters, cfg.Ranks, cfg.Seed, classes...)
	cfg.InjectorFactory = func() fault.Injector { return fault.NewSchedule(faults) }
	if sc := &cfg.Scheme; sc.Checkpoints() && sc.CkptEvery == 0 && sc.CkptMTBF == 0 {
		sc.CkptMTBF = ff.Time / float64(n)
	}
	return cfg, ff, nil
}

// lead runs the baseline for call c and publishes the outcome. Anything
// but a converged report is dropped from the table first, so the next
// caller runs afresh.
func (s *System) lead(ctx context.Context, key baselineKey, c *baselineCall, ff RunConfig) {
	s.runs.Add(1)
	c.rep, c.err = RunContext(ctx, ff)
	c.abandoned = c.err != nil && ctx.Err() != nil
	if c.err != nil || !c.rep.Converged {
		s.mu.Lock()
		if s.baselines.m[key] == c {
			s.baselines.drop(key)
		}
		s.mu.Unlock()
	}
	close(c.done)
}

// BaselineRuns reports how many fault-free solves the System has started;
// tests and gates use it to show that sharing happens.
func (s *System) BaselineRuns() int64 { return s.runs.Load() }

// Systems is a small content-addressed table of Systems for callers that
// own their matrix and right-hand side and may change them in place
// between solves (the public facade): a pointer says nothing about what
// it points to, so the key is a SHA-256 of the data itself. The zero
// value is ready to use. Safe for concurrent use.
type Systems struct {
	mu  sync.Mutex
	tab fifo[[sha256.Size]byte, *System]
}

// For returns the System for (a, b) as they are now. The content is
// hashed on every call; that is the price of not trusting pointers, and
// it is a few percent of the solve the caller is about to run. A resident
// System is reused only while it wraps these very slices: another object
// with equal content replaces it, because the resident's slices belong to
// a caller who may since have changed them.
func (t *Systems) For(a *sparse.CSR, b []float64) *System {
	fp := fingerprint(a, b)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.tab.m[fp]; ok && s.A == a && sameSlice(s.B, b) {
		return s
	}
	s := NewSystem(a, b)
	t.tab.put(fp, s, SystemsCap)
	return s
}

// Len reports how many Systems are resident.
func (t *Systems) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.tab.m)
}

func sameSlice(x, y []float64) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// fingerprint hashes the shape and every element of the system, each
// slice preceded by its length so that no two systems share an encoding.
func fingerprint(a *sparse.CSR, b []float64) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	put := func(v uint64) {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	ints := func(xs []int) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	floats := func(xs []float64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	if a != nil {
		put(uint64(a.Rows))
		put(uint64(a.Cols))
		ints(a.RowPtr)
		ints(a.ColIdx)
		floats(a.Val)
	}
	floats(b)
	h.Write(buf)
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

// fifo is a map bounded to a fixed number of entries that evicts in
// insertion order. The zero value is empty; not safe for concurrent use.
type fifo[K comparable, V any] struct {
	m     map[K]V
	order []K // the keys of m, oldest first
}

// put stores v under k, first evicting the oldest entry if the map holds
// max entries and k is not among them.
func (f *fifo[K, V]) put(k K, v V, max int) {
	if f.m == nil {
		f.m = make(map[K]V)
	}
	if _, ok := f.m[k]; ok {
		f.m[k] = v
		return
	}
	if len(f.order) >= max {
		delete(f.m, f.order[0])
		f.order = append(f.order[:0], f.order[1:]...)
	}
	f.m[k] = v
	f.order = append(f.order, k)
}

func (f *fifo[K, V]) drop(k K) {
	if _, ok := f.m[k]; !ok {
		return
	}
	delete(f.m, k)
	for i, o := range f.order {
		if o == k {
			f.order = append(f.order[:i], f.order[i+1:]...)
			return
		}
	}
}
