package mat

import (
	"math"
	"testing"

	"extdict/internal/rng"
)

// The level-1/2 kernels promise a fixed floating-point evaluation order, so
// the Batch-OMP codes built on them are reproducible bit for bit. These
// tests pin that order against plain scalar loops over every remainder path
// of the kernels (lengths 0–13, row counts 0–9).

// refMulVecTGrouped is MulVecT written as plain scalar loops with the
// kernel's grouping: rows are taken four at a time and each element adds
// (x0·r0 + x1·r1) + (x2·r2 + x3·r3); leftover rows add x_i·r_i one by one.
func refMulVecTGrouped(m *Dense, x []float64) []float64 {
	y := make([]float64, m.Cols)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		for j := range y {
			y[j] += (x[i]*r0[j] + x[i+1]*r1[j]) + (x[i+2]*r2[j] + x[i+3]*r3[j])
		}
	}
	for ; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range y {
			y[j] += x[i] * r[j]
		}
	}
	return y
}

// refMulVecTLeftToRight reassociates each four-row group as
// ((x0·r0 + x1·r1) + x2·r2) + x3·r3. It exists only to prove the sweep's
// data can tell two groupings apart.
func refMulVecTLeftToRight(m *Dense, x []float64) []float64 {
	y := make([]float64, m.Cols)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		for j := range y {
			y[j] += ((x[i]*r0[j] + x[i+1]*r1[j]) + x[i+2]*r2[j]) + x[i+3]*r3[j]
		}
	}
	for ; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range y {
			y[j] += x[i] * r[j]
		}
	}
	return y
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMulVecTMatchesScalarGroupingBitExact(t *testing.T) {
	r := rng.New(91)
	distinguishable := false
	for rows := 0; rows <= 9; rows++ {
		for cols := 0; cols <= 13; cols++ {
			m := benchMatrix(rows, cols, r.Uint64())
			x := benchVec(rows, r.Uint64())
			got := m.MulVecT(x, nil)
			want := refMulVecTGrouped(m, x)
			if !sameBits(got, want) {
				t.Fatalf("%dx%d: MulVecT %v, scalar reference %v", rows, cols, got, want)
			}
			if !sameBits(want, refMulVecTLeftToRight(m, x)) {
				distinguishable = true
			}
		}
	}
	if !distinguishable {
		t.Fatal("no shape in the sweep tells the kernel's grouping from a left-to-right sum; the test cannot catch a reassociation")
	}
}

func TestAxpyMatchesScalarLoopBitExact(t *testing.T) {
	r := rng.New(92)
	for n := 0; n <= 13; n++ {
		x, y := benchVec(n, r.Uint64()), benchVec(n, r.Uint64())
		a := r.NormFloat64()
		want := make([]float64, n)
		for i := range want {
			want[i] = y[i] + a*x[i]
		}
		Axpy(a, x, y)
		if !sameBits(y, want) {
			t.Fatalf("n=%d: Axpy %v, scalar loop %v", n, y, want)
		}
	}
}
