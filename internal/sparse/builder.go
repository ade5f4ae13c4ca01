package sparse

import "sort"

// Builder assembles a CSC matrix column by column, in order, without knowing
// the final nnz in advance.
type Builder struct {
	rows   int
	colPtr []int
	rowIdx []int
	val    []float64
}

// NewBuilder returns a builder for matrices with the given number of rows.
func NewBuilder(rows int) *Builder {
	return &Builder{rows: rows, colPtr: []int{0}}
}

// AppendColumn adds the next column with the given (index, value) pairs.
// Indices need not be sorted; they are sorted here. Duplicate indices and
// out-of-range indices panic: they indicate a bug in the encoder.
func (b *Builder) AppendColumn(idx []int, val []float64) {
	if len(idx) != len(val) {
		panic("sparse: AppendColumn length mismatch")
	}
	start := len(b.rowIdx)
	b.rowIdx = append(b.rowIdx, idx...)
	b.val = append(b.val, val...)
	seg := colSegment{b.rowIdx[start:], b.val[start:]}
	sort.Sort(seg)
	for i, r := range seg.idx {
		if r < 0 || r >= b.rows {
			panic("sparse: row index out of range")
		}
		if i > 0 && seg.idx[i-1] == r {
			panic("sparse: duplicate row index in column")
		}
	}
	b.colPtr = append(b.colPtr, len(b.rowIdx))
}

// AppendEmptyColumn adds a column with no stored entries.
func (b *Builder) AppendEmptyColumn() { b.colPtr = append(b.colPtr, len(b.rowIdx)) }

// Cols returns the number of columns appended so far.
func (b *Builder) Cols() int { return len(b.colPtr) - 1 }

// Build finalizes the matrix. The builder must not be used afterwards.
func (b *Builder) Build() *CSC {
	return &CSC{
		Rows:   b.rows,
		Cols:   len(b.colPtr) - 1,
		ColPtr: b.colPtr,
		RowIdx: b.rowIdx,
		Val:    b.val,
	}
}

type colSegment struct {
	idx []int
	val []float64
}

func (s colSegment) Len() int           { return len(s.idx) }
func (s colSegment) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s colSegment) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}
