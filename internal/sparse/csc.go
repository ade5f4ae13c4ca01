// Package sparse provides the compressed sparse column (CSC) and compressed
// sparse row (CSR) matrix types ExtDict uses to hold the coefficient matrix
// C produced by the ExD projection, plus the products the distributed
// computing model needs: C·x, Cᵀ·y, and per-column slicing for partitioning
// across processors.
//
// CSC is the native layout because ExD produces C column by column (one OMP
// solve per data column) and the distributed model (Algorithm 2) partitions
// C by columns.
package sparse

import (
	"fmt"
	"sort"

	"extdict/internal/mat"
)

// CSC is a sparse matrix in compressed sparse column format. Column j's
// entries are RowIdx[ColPtr[j]:ColPtr[j+1]] / Val[ColPtr[j]:ColPtr[j+1]],
// with row indices strictly increasing within each column.
type CSC struct {
	Rows, Cols int
	ColPtr     []int
	RowIdx     []int
	Val        []float64
}

// NNZ returns the number of stored (structurally nonzero) entries.
func (m *CSC) NNZ() int { return len(m.Val) }

// ColNNZ returns the number of stored entries in column j.
func (m *CSC) ColNNZ(j int) int { return m.ColPtr[j+1] - m.ColPtr[j] }

// At returns element (i, j) with a binary search over column j.
func (m *CSC) At(i, j int) float64 {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	idx := sort.SearchInts(m.RowIdx[lo:hi], i) + lo
	if idx < hi && m.RowIdx[idx] == i {
		return m.Val[idx]
	}
	return 0
}

// Dense expands m into a dense matrix.
func (m *CSC) Dense() *mat.Dense {
	out := mat.NewDense(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			out.Set(m.RowIdx[p], j, m.Val[p])
		}
	}
	return out
}

// MulVecCost is the cost contract of MulVec and MulVecT over a rows×cols
// CSC matrix holding nnz entries: 2·nnz flops and 16·nnz + 8·(2·cols +
// rows + 1) bytes (the values and row indices stream once, plus the column
// pointers and both dense vectors).
func MulVecCost(rows, cols int, nnz int64) (flops, bytes int64) {
	return 2 * nnz, 16*nnz + 8*(2*int64(cols)+int64(rows)+1)
}

// ResidentBytes is the footprint contract of a cols-column CSC matrix
// holding nnz entries: 16·nnz + 8·(cols + 1) bytes of values, row indices
// and column pointers — what a ColSliceRange block allocates.
func ResidentBytes(cols int, nnz int64) int64 {
	return 16*nnz + 8*(int64(cols)+1)
}

// MulVecCost is m's MulVec and MulVecT contract (package MulVecCost).
func (m *CSC) MulVecCost() (flops, bytes int64) {
	return MulVecCost(m.Rows, m.Cols, int64(m.NNZ()))
}

// ResidentBytes is m's footprint contract (package ResidentBytes).
func (m *CSC) ResidentBytes() int64 { return ResidentBytes(m.Cols, int64(m.NNZ())) }

// MulVec computes y = C·x, exploiting sparsity: cost is O(nnz).
// len(x) must be Cols; y must have length Rows (allocated when nil).
func (m *CSC) MulVec(x, y []float64) []float64 {
	if len(x) != m.Cols {
		panic("sparse: MulVec dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Rows)
	}
	if len(y) != m.Rows {
		panic("sparse: MulVec output length mismatch")
	}
	mat.Zero(y)
	for j := 0; j < m.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		// 4-way unrolled scatter: updates stay in column order, so the
		// result is bit-identical to the scalar loop.
		p, hi := m.ColPtr[j], m.ColPtr[j+1]
		for ; p+4 <= hi; p += 4 {
			idx := m.RowIdx[p : p+4 : p+4]
			v := m.Val[p : p+4 : p+4]
			y[idx[0]] += v[0] * xj
			y[idx[1]] += v[1] * xj
			y[idx[2]] += v[2] * xj
			y[idx[3]] += v[3] * xj
		}
		for ; p < hi; p++ {
			y[m.RowIdx[p]] += m.Val[p] * xj
		}
	}
	return y
}

// MulVecT computes y = Cᵀ·x in O(nnz). len(x) must be Rows; y must have
// length Cols (allocated when nil).
func (m *CSC) MulVecT(x, y []float64) []float64 {
	if len(x) != m.Rows {
		panic("sparse: MulVecT dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Cols)
	}
	if len(y) != m.Cols {
		panic("sparse: MulVecT output length mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		// 4-accumulator gather dot: independent accumulators overlap the
		// gather latency; reassociation changes last-ulp rounding only.
		var s0, s1, s2, s3 float64
		p, hi := m.ColPtr[j], m.ColPtr[j+1]
		for ; p+4 <= hi; p += 4 {
			idx := m.RowIdx[p : p+4 : p+4]
			v := m.Val[p : p+4 : p+4]
			s0 += v[0] * x[idx[0]]
			s1 += v[1] * x[idx[1]]
			s2 += v[2] * x[idx[2]]
			s3 += v[3] * x[idx[3]]
		}
		for ; p < hi; p++ {
			s0 += m.Val[p] * x[m.RowIdx[p]]
		}
		y[j] = (s0 + s1) + (s2 + s3)
	}
	return y
}

// ColSliceRange returns the sub-matrix of columns [j0, j1) as a new CSC with
// fresh storage. Used to hand each simulated processor its column block.
func (m *CSC) ColSliceRange(j0, j1 int) *CSC {
	if j0 < 0 || j1 < j0 || j1 > m.Cols {
		panic("sparse: ColSliceRange out of bounds")
	}
	n := j1 - j0
	nnz := m.ColPtr[j1] - m.ColPtr[j0]
	out := &CSC{
		Rows:   m.Rows,
		Cols:   n,
		ColPtr: make([]int, n+1),
		RowIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	base := m.ColPtr[j0]
	for j := 0; j <= n; j++ {
		out.ColPtr[j] = m.ColPtr[j0+j] - base
	}
	copy(out.RowIdx, m.RowIdx[base:m.ColPtr[j1]])
	copy(out.Val, m.Val[base:m.ColPtr[j1]])
	return out
}

// HStack concatenates blocks horizontally (all must share Rows). It is the
// inverse of splitting by ColSliceRange and is used by the evolving-data
// update to append new coefficient columns.
func HStack(blocks ...*CSC) *CSC {
	if len(blocks) == 0 {
		panic("sparse: HStack of nothing")
	}
	rows := blocks[0].Rows
	cols, nnz := 0, 0
	for _, b := range blocks {
		if b.Rows != rows {
			panic("sparse: HStack row mismatch")
		}
		cols += b.Cols
		nnz += b.NNZ()
	}
	out := &CSC{
		Rows:   rows,
		Cols:   cols,
		ColPtr: make([]int, 0, cols+1),
		RowIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	out.ColPtr = append(out.ColPtr, 0)
	for _, b := range blocks {
		base := len(out.Val)
		for j := 0; j < b.Cols; j++ {
			out.ColPtr = append(out.ColPtr, base+b.ColPtr[j+1])
		}
		out.RowIdx = append(out.RowIdx, b.RowIdx...)
		out.Val = append(out.Val, b.Val...)
	}
	return out
}

// PadRows returns a copy of m with extra zero rows appended so the result
// has newRows rows. Existing entries keep their row indices. This implements
// the zero-padding step of the evolving-data update (paper Fig. 3), where C
// gains rows when the dictionary gains atoms.
func (m *CSC) PadRows(newRows int) *CSC {
	if newRows < m.Rows {
		panic("sparse: PadRows cannot shrink")
	}
	out := &CSC{
		Rows:   newRows,
		Cols:   m.Cols,
		ColPtr: append([]int(nil), m.ColPtr...),
		RowIdx: append([]int(nil), m.RowIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return out
}

// ShiftRows returns a copy of m with all row indices increased by offset and
// the row count grown to newRows. Used for the lower-right block in the
// evolving-data zero-padding layout.
func (m *CSC) ShiftRows(offset, newRows int) *CSC {
	if offset < 0 || m.Rows+offset > newRows {
		panic("sparse: ShiftRows out of bounds")
	}
	out := m.PadRows(newRows)
	for i := range out.RowIdx {
		out.RowIdx[i] += offset
	}
	return out
}

// Check validates the CSC invariants, returning a descriptive error when the
// structure is malformed. Used by tests and by the builder.
func (m *CSC) Check() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.ColPtr) != m.Cols+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(m.ColPtr), m.Cols+1)
	}
	if m.ColPtr[0] != 0 || m.ColPtr[m.Cols] != len(m.Val) || len(m.Val) != len(m.RowIdx) {
		return fmt.Errorf("sparse: inconsistent pointers")
	}
	for j := 0; j < m.Cols; j++ {
		if m.ColPtr[j] > m.ColPtr[j+1] {
			return fmt.Errorf("sparse: decreasing ColPtr at column %d", j)
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.RowIdx[p] < 0 || m.RowIdx[p] >= m.Rows {
				return fmt.Errorf("sparse: row index %d out of range in column %d", m.RowIdx[p], j)
			}
			if p > m.ColPtr[j] && m.RowIdx[p-1] >= m.RowIdx[p] {
				return fmt.Errorf("sparse: unsorted rows in column %d", j)
			}
		}
	}
	return nil
}
