package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// randomCSC builds a random sparse matrix with the given density.
func randomCSC(r *rng.RNG, rows, cols int, density float64) *CSC {
	b := NewBuilder(rows)
	for j := 0; j < cols; j++ {
		var idx []int
		var val []float64
		for i := 0; i < rows; i++ {
			if r.Float64() < density {
				idx = append(idx, i)
				val = append(val, r.NormFloat64())
			}
		}
		b.AppendColumn(idx, val)
	}
	return b.Build()
}

func TestBuilderAndCheck(t *testing.T) {
	b := NewBuilder(4)
	b.AppendColumn([]int{3, 0}, []float64{30, 0.5}) // unsorted on purpose
	b.AppendEmptyColumn()
	b.AppendColumn([]int{2}, []float64{2})
	m := b.Build()
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 4 || m.Cols != 3 || m.NNZ() != 3 {
		t.Fatalf("shape/nnz wrong: %+v", m)
	}
	//lint:ignore nofloateq parsed values must round-trip the literal bits unchanged
	if m.At(0, 0) != 0.5 || m.At(3, 0) != 30 || m.At(1, 0) != 0 {
		t.Fatal("At wrong")
	}
	if m.ColNNZ(1) != 0 || m.ColNNZ(2) != 1 {
		t.Fatal("ColNNZ wrong")
	}
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate row index")
		}
	}()
	NewBuilder(3).AppendColumn([]int{1, 1}, []float64{1, 2})
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	NewBuilder(3).AppendColumn([]int{3}, []float64{1})
}

func TestDenseRoundTrip(t *testing.T) {
	r := rng.New(31)
	m := randomCSC(r, 9, 7, 0.3)
	d := m.Dense()
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			if d.At(i, j) != m.At(i, j) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		rows, cols := 2+r.Intn(20), 2+r.Intn(20)
		m := randomCSC(r, rows, cols, 0.25)
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		got := m.MulVec(x, nil)
		want := m.Dense().MulVec(x, nil)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecTMatchesDense(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 7)
		rows, cols := 2+r.Intn(20), 2+r.Intn(20)
		m := randomCSC(r, rows, cols, 0.25)
		x := make([]float64, rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		got := m.MulVecT(x, nil)
		want := m.Dense().MulVecT(x, nil)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestColSliceRangeAndHStack(t *testing.T) {
	r := rng.New(33)
	m := randomCSC(r, 11, 10, 0.3)
	a := m.ColSliceRange(0, 4)
	b := m.ColSliceRange(4, 4) // empty slice is legal
	c := m.ColSliceRange(4, 10)
	if b.Cols != 0 {
		t.Fatal("empty slice has columns")
	}
	re := HStack(a, b, c)
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(re.Dense(), m.Dense(), 0) {
		t.Fatal("HStack(ColSliceRange...) != original")
	}
}

func TestColSliceRangeIsACopy(t *testing.T) {
	r := rng.New(34)
	m := randomCSC(r, 5, 5, 0.9)
	s := m.ColSliceRange(1, 3)
	if s.NNZ() == 0 {
		t.Skip("degenerate draw")
	}
	s.Val[0] = 1e9
	for _, v := range m.Val {
		//lint:ignore nofloateq 1e9 is a sentinel written verbatim; detecting it requires exact match
		if v == 1e9 {
			t.Fatal("slice aliases parent storage")
		}
	}
}

func TestPadAndShiftRows(t *testing.T) {
	r := rng.New(35)
	m := randomCSC(r, 4, 3, 0.5)
	p := m.PadRows(7)
	if p.Rows != 7 || p.NNZ() != m.NNZ() {
		t.Fatal("PadRows wrong")
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	s := m.ShiftRows(3, 7)
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if s.At(i+3, j) != m.At(i, j) {
				t.Fatal("ShiftRows moved values incorrectly")
			}
			if s.At(i, j) != 0 && i < 3 {
				t.Fatal("ShiftRows left values in the zero band")
			}
		}
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	r := rng.New(36)
	m := randomCSC(r, 6, 6, 0.5)
	if m.NNZ() < 2 {
		t.Skip("degenerate draw")
	}
	m.RowIdx[0], m.RowIdx[1] = m.RowIdx[1], m.RowIdx[0]
	// Only fails if the two entries are in the same column and now unsorted;
	// force a definite corruption instead.
	m.RowIdx[0] = -1
	if err := m.Check(); err == nil {
		t.Fatal("Check missed corruption")
	}
}

func BenchmarkMulVecSparse(b *testing.B) {
	r := rng.New(1)
	m := randomCSC(r, 512, 4096, 0.01)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	y := make([]float64, m.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
}

// TestCostContracts pins the CSC contracts on a 4×3 matrix holding 5
// entries, and checks that a ColSliceRange block's resident contract is
// exactly what the block allocates.
func TestCostContracts(t *testing.T) {
	m := &CSC{Rows: 4, Cols: 3, ColPtr: []int{0, 2, 3, 5}, RowIdx: []int{0, 3, 1, 0, 2}, Val: []float64{1, 2, 3, 4, 5}}
	if flops, bytes := m.MulVecCost(); flops != 10 || bytes != 16*5+8*(2*3+4+1) {
		t.Errorf("MulVecCost = (%d, %d), want (10, %d)", flops, bytes, 16*5+8*(2*3+4+1))
	}
	if got := m.ResidentBytes(); got != 16*5+8*4 {
		t.Errorf("ResidentBytes = %d, want %d", got, 16*5+8*4)
	}
	blk := randomCSC(rng.New(3), 20, 30, 0.2).ColSliceRange(4, 17)
	if got, want := blk.ResidentBytes(), int64(8*(len(blk.Val)+len(blk.RowIdx)+len(blk.ColPtr))); got != want {
		t.Errorf("block ResidentBytes = %d, allocated %d", got, want)
	}
}
