// Package faust implements FAµST-style fast dictionaries: a dense
// dictionary D (M×L) approximated by a chain of sparse factors
//
//	D ≈ S_1 · S_2 · … · S_k,
//
// so applying D or Dᵀ to a vector costs O(Σ nnz(S_i)) instead of O(M·L)
// ("Learning computationally efficient dictionaries and their implementation
// as fast transforms", Le Magoarou & Gribonval). The factors are the
// repository's native sparse.CSC matrices, so the chain apply rides the same
// unrolled CSC kernels the distributed operators already use.
//
// The package provides the FastDict operator (chain storage + serial and
// deterministic parallel MulVec/MulVecT), a PALM-style hierarchical
// factorization routine (palm.go), and binary serialization (serialize.go).
package faust

import (
	"fmt"
	"math"

	"extdict/internal/mat"
	"extdict/internal/sparse"
)

// FastDict is a dense M×L dictionary represented as a product of sparse
// factors: Factors[0]·Factors[1]·…·Factors[k-1], where Factors[0] has Rows
// rows, Factors[k-1] has Cols columns, and adjacent factors agree on their
// inner dimension. The canonical shape produced by Factorize is one M×L
// factor at the wide end followed by k-1 square L×L factors, but the apply
// kernels accept any consistent chain.
type FastDict struct {
	Rows, Cols int
	Factors    []*sparse.CSC
}

// Depth returns the number of factors in the chain.
func (f *FastDict) Depth() int { return len(f.Factors) }

// NNZ returns the total number of stored entries across the chain,
// Σ nnz(S_i).
func (f *FastDict) NNZ() int64 {
	var n int64
	for _, s := range f.Factors {
		n += int64(s.NNZ())
	}
	return n
}

// MulVecCost is the cost contract of one chain apply — MulVec, MulVecT and
// their Par forms alike: each factor hop is one CSC product, so the chain
// costs the sum of its factors' sparse contracts, 2·NNZ flops and
// Σ (16·nnz_i + 8·(rows_i + 2·cols_i + 1)) bytes in either direction.
func (f *FastDict) MulVecCost() (flops, bytes int64) {
	for _, s := range f.Factors {
		fl, b := s.MulVecCost()
		flops, bytes = flops+fl, bytes+b
	}
	return flops, bytes
}

// ResidentBytes is the footprint contract of holding the chain resident:
// the sum of its factors' CSC footprints.
func (f *FastDict) ResidentBytes() int64 {
	var n int64
	for _, s := range f.Factors {
		n += s.ResidentBytes()
	}
	return n
}

// MaxInterDim returns the length of the largest intermediate vector a chain
// apply produces — max over interior dimensions Factors[i].Cols, i < k-1 —
// and therefore the scratch-buffer length both MulVec and MulVecT require.
// A single-factor chain needs no intermediates and returns 0.
func (f *FastDict) MaxInterDim() int {
	d := 0
	for i := 0; i+1 < len(f.Factors); i++ {
		if c := f.Factors[i].Cols; c > d {
			d = c
		}
	}
	return d
}

// Check validates the chain: factor CSC invariants, inner-dimension
// agreement, and the outer dimensions matching Rows×Cols.
func (f *FastDict) Check() error {
	if len(f.Factors) == 0 {
		return fmt.Errorf("faust: empty factor chain")
	}
	if f.Factors[0].Rows != f.Rows {
		return fmt.Errorf("faust: first factor has %d rows, want %d", f.Factors[0].Rows, f.Rows)
	}
	if f.Factors[len(f.Factors)-1].Cols != f.Cols {
		return fmt.Errorf("faust: last factor has %d cols, want %d", f.Factors[len(f.Factors)-1].Cols, f.Cols)
	}
	for i, s := range f.Factors {
		if err := s.Check(); err != nil {
			return fmt.Errorf("faust: factor %d: %w", i, err)
		}
		if i > 0 && f.Factors[i-1].Cols != s.Rows {
			return fmt.Errorf("faust: factor %d has %d rows, want %d (inner dimension)", i, s.Rows, f.Factors[i-1].Cols)
		}
	}
	return nil
}

// MulVec computes y = (S_1·…·S_k)·x by applying the factors right to left.
// len(x) must be Cols and len(y) Rows (y allocated when nil); t1 and t2 are
// intermediate buffers of length ≥ MaxInterDim (allocated when nil). The
// hops ping-pong between t1 and t2 and the final hop writes y directly, so
// a steady-state caller allocates nothing.
func (f *FastDict) MulVec(x, y, t1, t2 []float64) []float64 {
	if len(x) != f.Cols {
		panic("faust: MulVec dimension mismatch")
	}
	if y == nil {
		y = make([]float64, f.Rows)
	}
	if len(y) != f.Rows {
		panic("faust: MulVec output length mismatch")
	}
	k := len(f.Factors)
	cur := x
	for hop := 0; hop < k-1; hop++ {
		s := f.Factors[k-1-hop]
		dst := f.interBuf(hop, &t1, &t2)[:s.Rows]
		s.MulVec(cur, dst)
		cur = dst
	}
	return f.Factors[0].MulVec(cur, y)
}

// MulVecT computes y = (S_1·…·S_k)ᵀ·x = S_kᵀ·…·S_1ᵀ·x by applying factor
// transposes left to right. len(x) must be Rows and len(y) Cols (allocated
// when nil); t1 and t2 as in MulVec.
func (f *FastDict) MulVecT(x, y, t1, t2 []float64) []float64 {
	if len(x) != f.Rows {
		panic("faust: MulVecT dimension mismatch")
	}
	if y == nil {
		y = make([]float64, f.Cols)
	}
	if len(y) != f.Cols {
		panic("faust: MulVecT output length mismatch")
	}
	k := len(f.Factors)
	cur := x
	for hop := 0; hop < k-1; hop++ {
		s := f.Factors[hop]
		dst := f.interBuf(hop, &t1, &t2)[:s.Cols]
		s.MulVecT(cur, dst)
		cur = dst
	}
	return f.Factors[k-1].MulVecT(cur, y)
}

// interBuf returns the ping-pong buffer for intermediate hop number hop,
// allocating it on first use when the caller passed nil.
func (f *FastDict) interBuf(hop int, t1, t2 *[]float64) []float64 {
	t := t1
	if hop%2 == 1 {
		t = t2
	}
	if *t == nil {
		*t = make([]float64, f.MaxInterDim())
	}
	if len(*t) < f.MaxInterDim() {
		panic("faust: intermediate buffer too short")
	}
	return *t
}

// Dense materializes the chain product as a dense M×L matrix — the
// reference the property tests compare the chain kernels against, and the
// reconstruction RelError measures.
func (f *FastDict) Dense() *mat.Dense {
	out := f.Factors[0].Dense()
	for _, s := range f.Factors[1:] {
		right := s.Dense()
		next := mat.NewDense(out.Rows, right.Cols)
		mat.ParMulTo(next, out, right)
		out = next
	}
	return out
}

// RelError returns ‖D − S_1·…·S_k‖_F / ‖D‖_F, the relative reconstruction
// error of the chain against the dense dictionary it approximates.
func (f *FastDict) RelError(d *mat.Dense) float64 {
	if d.Rows != f.Rows || d.Cols != f.Cols {
		panic("faust: RelError dimension mismatch")
	}
	rec := f.Dense()
	var num, den float64
	for i := 0; i < d.Rows; i++ {
		dr, rr := d.Row(i), rec.Row(i)
		for j := range dr {
			e := dr[j] - rr[j]
			num += e * e
			den += dr[j] * dr[j]
		}
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
