package mat

import (
	"math"
	"testing"
	"testing/quick"

	"extdict/internal/rng"
)

func TestMulVecKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{
		1, 2, 3,
		4, 5, 6,
	})
	y := a.MulVec([]float64{1, 1, 1}, nil)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulVecTKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{
		1, 2, 3,
		4, 5, 6,
	})
	y := a.MulVecT([]float64{1, 2}, nil)
	want := []float64{9, 12, 15}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", y, want)
		}
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	r := rng.New(4)
	a := randomDense(r, 17, 9)
	x := make([]float64, 17)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := a.MulVecT(x, nil)
	want := a.T().MulVec(x, nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	c := Mul(a, b)
	want := NewDenseData(2, 2, []float64{19, 22, 43, 50})
	if !Equal(c, want, 1e-12) {
		t.Fatalf("Mul = %v", c.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(5)
	a := randomDense(r, 6, 6)
	id := NewDense(6, 6)
	for i := 0; i < 6; i++ {
		id.Set(i, i, 1)
	}
	if !Equal(Mul(a, id), a, 1e-12) || !Equal(Mul(id, a), a, 1e-12) {
		t.Fatal("identity multiplication failed")
	}
}

func TestMulAssociativity(t *testing.T) {
	r := rng.New(6)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		m, k, n, p := 2+rr.Intn(6), 2+rr.Intn(6), 2+rr.Intn(6), 2+rr.Intn(6)
		a := randomDense(r, m, k)
		b := randomDense(r, k, n)
		c := randomDense(r, n, p)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestATAMatchesMul(t *testing.T) {
	r := rng.New(7)
	a := randomDense(r, 13, 7)
	g := ATA(a)
	want := Mul(a.T(), a)
	if !Equal(g, want, 1e-10) {
		t.Fatal("ATA differs from explicit AᵀA")
	}
	// Symmetry.
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			if g.At(i, j) != g.At(j, i) {
				t.Fatal("ATA not symmetric")
			}
		}
	}
}

func TestGramColumns(t *testing.T) {
	r := rng.New(8)
	a := randomDense(r, 11, 9)
	cols := []int{2, 5, 7}
	g := GramColumns(a, cols)
	sub := a.ColSlice(cols)
	want := ATA(sub)
	if !Equal(g, want, 1e-10) {
		t.Fatal("GramColumns differs from ATA of column slice")
	}
}

func TestParMulVecMatchesSerial(t *testing.T) {
	r := rng.New(9)
	a := randomDense(r, 300, 41)
	x := make([]float64, 41)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := a.ParMulVec(x, nil)
	want := a.MulVec(x, nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ParMulVec mismatch at %d", i)
		}
	}
}

func TestParMulToMatchesSerial(t *testing.T) {
	r := rng.New(10)
	a := randomDense(r, 120, 30)
	b := randomDense(r, 30, 25)
	got := NewDense(120, 25)
	ParMulTo(got, a, b)
	want := Mul(a, b)
	if !Equal(got, want, 1e-10) {
		t.Fatal("ParMulTo differs from Mul")
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatal("Dot wrong")
	}
	if Norm1(x) != 6 || NormInf(y) != 6 {
		t.Fatal("norms wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-14 {
		t.Fatal("Norm2 wrong")
	}
	z := CopyVec(y)
	Axpy(2, x, z)
	if z[0] != 6 || z[2] != 12 {
		t.Fatalf("Axpy = %v", z)
	}
	SubVec(z, z, y)
	if z[0] != 2 {
		t.Fatal("SubVec wrong")
	}
	AddVec(z, z, z)
	if z[0] != 4 {
		t.Fatal("AddVec wrong")
	}
	ScaleVec(0.5, z)
	if z[0] != 2 {
		t.Fatal("ScaleVec wrong")
	}
	Zero(z)
	if Norm1(z) != 0 {
		t.Fatal("Zero wrong")
	}
}

func BenchmarkMulVec1024(b *testing.B) {
	r := rng.New(1)
	a := randomDense(r, 1024, 1024)
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

func BenchmarkATA256(b *testing.B) {
	r := rng.New(1)
	a := randomDense(r, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ATA(a)
	}
}

// TestCostContracts pins each kernel contract at a small shape against
// values written out by hand: a 3×5 product, 7-vectors for the level-1
// kernels, and the footprint of a matrix and of a column window of it.
func TestCostContracts(t *testing.T) {
	type cost struct{ flops, bytes int64 }
	of := func(flops, bytes int64) cost { return cost{flops, bytes} }
	for _, tc := range []struct {
		name      string
		got, want cost
	}{
		{"MulVec", of(MulVecCost(3, 5)), cost{30, 8 * (15 + 3 + 5)}},
		{"Dot", of(DotCost(7)), cost{14, 112}},
		{"Axpy", of(AxpyCost(7)), cost{14, 168}},
		{"Zero", of(ZeroCost(7)), cost{0, 56}},
	} {
		if tc.got != tc.want {
			t.Errorf("%sCost = %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
	a := NewDense(3, 5)
	if got := a.ResidentBytes(); got != 120 {
		t.Errorf("3×5 ResidentBytes = %d, want 120", got)
	}
	if got := a.ColRange(1, 4).ResidentBytes(); got != 72 {
		t.Errorf("3×3 window ResidentBytes = %d, want 72", got)
	}
}
