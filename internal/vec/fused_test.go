package vec

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestFusedKernelsBitwiseEquivalence checks that AxpyDot is
// bitwise-identical to the unfused Axpy-then-Dot sequence across every
// remainder length and a large random case.
func TestFusedKernelsBitwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := make([]int, 0, 19)
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4099)

	for _, n := range lengths {
		alpha := rng.NormFloat64()
		x := randSlice(rng, n)
		y0 := randSlice(rng, n)

		// Reference: separate Axpy then Dot.
		yRef := append([]float64(nil), y0...)
		Axpy(alpha, x, yRef)
		wantYY := Dot(yRef, yRef)

		y := append([]float64(nil), y0...)
		gotYY := AxpyDot(alpha, x, y)
		if math.Float64bits(gotYY) != math.Float64bits(wantYY) {
			t.Fatalf("n=%d: AxpyDot dot %v != reference %v", n, gotYY, wantYY)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(yRef[i]) {
				t.Fatalf("n=%d: AxpyDot y[%d]=%v != reference %v", n, i, y[i], yRef[i])
			}
		}
	}
}
