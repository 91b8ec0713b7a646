// Package vec provides dense vector kernels (BLAS level-1 style) used by
// every solver in this repository, together with flop-count helpers that
// feed the virtual-time cost model.
//
// All kernels operate on []float64 and panic on length mismatch: a length
// mismatch is always a programming error in a solver, never a runtime
// condition to recover from.
package vec

import (
	"fmt"
	"math"
)

// checkLen panics if the two vectors differ in length.
func checkLen(op string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: %s length mismatch %d != %d", op, len(a), len(b)))
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	checkLen("Dot", x, y)
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float64) float64 {
	// Scaled sum of squares for robustness against overflow.
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	checkLen("Axpy", x, y)
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Sub computes dst = a - b.
func Sub(dst, a, b []float64) {
	checkLen("Sub", a, b)
	checkLen("Sub", dst, a)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// AxpyDot computes y += alpha*x and returns the squared 2-norm y·y of the
// updated y — the CG residual update fused with its following reduction.
// Bitwise-identical to Axpy(alpha, x, y) followed by Dot(y, y).
func AxpyDot(alpha float64, x, y []float64) float64 {
	checkLen("AxpyDot", x, y)
	var s float64
	for i, v := range x {
		yi := y[i] + alpha*v
		y[i] = yi
		s += yi * yi
	}
	return s
}

// Xpby computes y = x + beta*y in place (the CG direction update).
func Xpby(x []float64, beta float64, y []float64) {
	checkLen("Xpby", x, y)
	for i, v := range x {
		y[i] = v + beta*y[i]
	}
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	checkLen("Dist2", a, b)
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Flop counts for the cost model. One fused multiply-add counts as two
// flops, matching the convention used in HPC benchmark reporting.

// DotFlops returns the flop count of a length-n dot product.
func DotFlops(n int) int64 { return 2 * int64(n) }

// AxpyFlops returns the flop count of a length-n axpy.
func AxpyFlops(n int) int64 { return 2 * int64(n) }

// Nrm2Flops returns the flop count of a length-n 2-norm.
func Nrm2Flops(n int) int64 { return 2 * int64(n) }
