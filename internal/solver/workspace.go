package solver

// SeqWorkspace holds the scratch buffers of the sequential preconditioned
// solvers, reused across the per-fault reconstruction solves of the
// LI/LSI recovery schemes so repeated solves stop allocating. A zero
// SeqWorkspace is ready to use; buffers grow on demand.
type SeqWorkspace struct {
	r, z, p, q, invD, diag, tmp []float64
}

// wsSized returns a length-n slice backed by *buf with undefined
// contents, growing *buf only when capacity is insufficient. Use it for
// buffers the solver fully overwrites before reading.
func wsSized(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
