package main

import (
	"fmt"
	"strconv"
	"time"

	"resilience"
	"resilience/internal/chaos"
)

// basket is the scheme set of one solve pass: the paper's forward
// recovery (plain and DVFS), both checkpoint/restart targets and dual
// redundancy. ESR and LCR stay out until the ESR persist model settles
// (ROADMAP 4b), which would move host time for a correctness reason.
var basket = []string{"LI", "LI-DVFS", "LSI-DVFS", "CR-M", "CR-D", "RD"}

const (
	solveTol    = 1e-12
	solveFaults = 5 // evenly spaced node failures per solve
)

// solveWorkload is the library path: one resilience.Solve per basket
// scheme per pass, on a fixed matrix and rank count.
type solveWorkload struct {
	cfg    config
	matrix string // catalog name; empty when a and b were handed in
	ranks  int

	a *resilience.Matrix
	b []float64

	generateTime time.Duration
	input, sim   string // digests; sim is the warm-up pass's
	stats        solveStats
}

// solveStats accumulates what the traced passes learn about the solves:
// exact counts from the run reports and recorders, and the solve walls.
type solveStats struct {
	solves      int
	iters       int // faulted runs' iterations
	restarts    int
	checkpoints int
	faults      int
	wall        time.Duration
	// Recorder counters summed over ranks and solves.
	msgs, bytes, collectives, flops int64
}

func newSolveWorkload(cfg config, matrix string, ranks int) *solveWorkload {
	if cfg.quick && ranks > 8 {
		ranks = 8
	}
	return &solveWorkload{cfg: cfg, matrix: matrix, ranks: ranks}
}

// tol is the CG target: the paper's, loosened under -quick so the smoke
// test converges in a few dozen iterations.
func (w *solveWorkload) tol() float64 {
	if w.cfg.quick {
		return 1e-4
	}
	return solveTol
}

func (w *solveWorkload) setup() error {
	if w.a == nil {
		scale := "ci"
		if w.cfg.quick {
			scale = "tiny"
		}
		t := time.Now()
		a, err := resilience.CatalogMatrix(w.matrix, scale)
		if err != nil {
			return err
		}
		w.a = a
		w.b, _ = resilience.RHS(a)
		w.generateTime = time.Since(t)
	}
	d := newDigest()
	d.ints(w.a.RowPtr)
	d.ints(w.a.ColIdx)
	d.floats(w.a.Val)
	d.floats(w.b)
	d.strs(basket...)
	d.ints([]int{w.ranks, solveFaults, int(w.cfg.seed)})
	d.floats([]float64{w.tol()})
	w.input = d.hex()

	if p := w.pass(-1, nil); p.failed > 0 {
		return fmt.Errorf("warm-up pass: %d of %d solves failed", p.failed, p.ops)
	}
	return nil
}

// pass runs the basket once. Every pass has the same inputs, so its
// simulated statistics must equal the warm-up pass's bit for bit; a pass
// that disagrees fails whole.
func (w *solveWorkload) pass(k int, tr *tracer) passResult {
	res := passResult{ops: len(basket)}
	d := newDigest()
	for i, scheme := range basket {
		opts := resilience.SolveOptions{
			Scheme: scheme, Ranks: w.ranks, Tol: w.tol(),
			Faults: solveFaults, Seed: w.cfg.seed,
		}
		if tr != nil {
			opts.Observer = resilience.NewRecorder()
		}
		op := int64(k*len(basket) + i)
		root := tr.begin("op "+scheme, op, -1, 0)
		call := tr.begin("resilience.Solve", op, root, 0)
		t := time.Now()
		rep, err := resilience.Solve(w.a, w.b, opts)
		wall := time.Since(t)
		tr.end(call)
		tr.end(root)
		if err != nil || !rep.Converged {
			res.failed++
			d.str("failed")
			continue
		}
		res.lat = append(res.lat, ms(wall))
		d.strs(scheme, strconv.Itoa(rep.Iters), chaos.HexFloat(rep.Time), chaos.HexFloat(rep.Energy),
			chaos.HashFloats(rep.Solution), chaos.HashFloats(rep.History))
		if tr != nil {
			s := &w.stats
			s.solves++
			s.iters += rep.Iters
			s.restarts += rep.Restarts
			s.checkpoints += rep.Checkpoints
			s.faults += len(rep.Faults)
			s.wall += wall
			for _, m := range opts.Observer.Metrics() {
				s.msgs += m.MsgsSent
				s.bytes += m.BytesSent
				s.collectives += m.Collectives
				s.flops += m.Flops
			}
		}
	}
	switch sim := d.hex(); {
	case w.sim == "":
		w.sim = sim
	case sim != w.sim:
		res.failed, res.lat = res.ops, nil
	}
	return res
}

func (w *solveWorkload) verify() int { return 0 }

func (w *solveWorkload) digests() (string, string) { return w.input, w.sim }

func (w *solveWorkload) close() {}
