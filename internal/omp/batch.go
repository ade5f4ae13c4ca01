package omp

import (
	"math"
	"sync"

	"extdict/internal/mat"
	"extdict/internal/sparse"
)

// gramPrecomputeLimit is the dictionary size above which the full L×L Gram
// matrix (O(L²) memory) is replaced by lazily computed, cached rows. With
// over-complete dictionaries L can approach N, where a dense Gram matrix
// would need O(N²) storage — the exact blow-up ExtDict exists to avoid.
// It is a variable only so tests can exercise the lazy path cheaply.
var gramPrecomputeLimit = 2048

// maxLazyCacheFloats bounds the lazy row cache (~256 MB of float64s). Rows
// beyond the budget are recomputed on demand instead of cached. A variable
// for the same testing reason.
var maxLazyCacheFloats = 1 << 25

// BatchCoder codes many signals against one fixed dictionary using Batch-OMP
// with progressive Cholesky updates (Rubinstein, Zibulevsky & Elad 2008).
//
// For moderate dictionaries the setup precomputes the Gram matrix G = DᵀD
// (O(M·L²)); for very large ones Gram rows are computed on first use and
// cached under a memory budget. Each signal then costs O(M·L) for the
// initial correlations plus O(k·L + k³) for a k-sparse code, and never
// touches the residual vector: its norm is tracked by the recurrence
// ‖r‖² = ‖a‖² - γᵀ(Dᵀa)_φ.
type BatchCoder struct {
	D *mat.Dense // M×L dictionary

	g *mat.Dense // L×L Gram matrix when L ≤ gramPrecomputeLimit, else nil

	mu       sync.Mutex
	lazyRows [][]float64 // cached Gram rows when g == nil
	cached   int         // floats currently cached
}

// NewBatchCoder prepares the Gram structures for d.
func NewBatchCoder(d *mat.Dense) *BatchCoder {
	bc := &BatchCoder{D: d}
	if d.Cols <= gramPrecomputeLimit {
		bc.g = mat.ParATA(d)
	} else {
		bc.lazyRows = make([][]float64, d.Cols)
	}
	return bc
}

// gramRow returns row j of DᵀD. The returned slice is shared and read-only.
func (bc *BatchCoder) gramRow(j int) []float64 {
	if bc.g != nil {
		return bc.g.Row(j)
	}
	bc.mu.Lock()
	if r := bc.lazyRows[j]; r != nil {
		bc.mu.Unlock()
		return r
	}
	bc.mu.Unlock()

	// Compute outside the lock; concurrent duplicate computation is
	// harmless (identical results) and rare.
	col := bc.D.Col(j, nil)
	row := bc.D.MulVecT(col, nil)

	bc.mu.Lock()
	if bc.lazyRows[j] == nil && bc.cached+len(row) <= maxLazyCacheFloats {
		bc.lazyRows[j] = row
		bc.cached += len(row)
	}
	bc.mu.Unlock()
	return row
}

// Workspace holds per-goroutine scratch so concurrent Encode calls do not
// allocate per signal. A zero Workspace is ready to use.
type Workspace struct {
	alpha0   []float64 // Dᵀa, fixed per signal
	alpha    []float64 // Dᵀr, updated per iteration
	gammaRHS []float64 // (Dᵀa)_φ in selection order
	gamma    []float64 // current coefficients
	cross    []float64 // Gram cross-correlations of the newest atom
	selected []bool
	idx      []int       // selected atoms, selection order
	rows     [][]float64 // Gram rows of the selected atoms, selection order
	negGamma []float64   // -γᵢ for the nonzero γᵢ, selection order
	liveRows [][]float64 // the Gram rows matching negGamma
	chol     *mat.Cholesky
}

func (w *Workspace) reset(l, maxAtoms int) {
	if cap(w.alpha0) < l {
		w.alpha0 = make([]float64, l)
		w.alpha = make([]float64, l)
		w.selected = make([]bool, l)
	}
	w.alpha0 = w.alpha0[:l]
	w.alpha = w.alpha[:l]
	w.selected = w.selected[:l]
	for i := range w.selected {
		w.selected[i] = false
	}
	// The per-atom buffers are capped by the support size; sizing them here
	// keeps the selection loop allocation-free (hotalloc).
	if cap(w.gammaRHS) < maxAtoms {
		w.gammaRHS = make([]float64, 0, maxAtoms)
		w.gamma = make([]float64, 0, maxAtoms)
		w.cross = make([]float64, maxAtoms)
		w.idx = make([]int, 0, maxAtoms)
		w.rows = make([][]float64, 0, maxAtoms)
		w.negGamma = make([]float64, 0, maxAtoms)
		w.liveRows = make([][]float64, 0, maxAtoms)
	}
	w.gammaRHS = w.gammaRHS[:0]
	w.gamma = w.gamma[:0]
	w.idx = w.idx[:0]
	w.rows = w.rows[:0]
	if w.chol == nil {
		w.chol = mat.NewCholesky(maxAtoms)
	}
	w.chol.Reset()
}

// Encode codes signal a with relative tolerance tol and support cap
// maxAtoms (0 = min(M, L)). ws may be nil, in which case a temporary
// workspace is used.
func (bc *BatchCoder) Encode(a []float64, tol float64, maxAtoms int, ws *Workspace) Result {
	if ws == nil {
		ws = &Workspace{}
	}
	resid2, coded := bc.encode(a, tol, maxAtoms, ws)
	if !coded {
		return Result{}
	}
	k := len(ws.idx)
	idx := make([]int, k)
	copy(idx, ws.idx)
	return Result{Idx: idx, Coef: mat.CopyVec(ws.gamma[:k]), Resid2: resid2, Iters: k}
}

// encode runs Batch-OMP on signal a, leaving the support in ws.idx
// (selection order) and its coefficients in ws.gamma[:len(ws.idx)]. It
// returns the final ‖r‖², and coded = false for the all-zero signal, which
// has nothing to code.
func (bc *BatchCoder) encode(a []float64, tol float64, maxAtoms int, ws *Workspace) (resid2 float64, coded bool) {
	d := bc.D
	if len(a) != d.Rows {
		panic("omp: signal length does not match dictionary rows")
	}
	m, l := d.Rows, d.Cols
	if maxAtoms <= 0 || maxAtoms > min(m, l) {
		maxAtoms = min(m, l)
	}
	ws.reset(l, maxAtoms)

	norm2a := mat.Dot(a, a)
	if norm2a == 0 {
		return 0, false
	}
	target2 := tol * tol * norm2a
	// The ‖r‖² recurrence subtracts sums that the unrolled kernels
	// accumulate in different orders (norm2a, α⁰, and the Gram diagonal
	// reassociate differently), so it bottoms out at O(M·u)·‖a‖² instead of
	// an exact 0. A tolerance below that rounding floor cannot be certified;
	// clamp the stop threshold so the full-dictionary identity case (paper
	// §VII: a_i = D·e_i ⇒ one unit atom) still terminates after one atom.
	if floor := 8 * 0x1p-52 * float64(m) * norm2a; target2 < floor {
		target2 = floor
	}

	// α⁰ = Dᵀa; α starts equal to α⁰ because r₀ = a.
	d.MulVecT(a, ws.alpha0)
	copy(ws.alpha, ws.alpha0)

	resid2 = norm2a
	for len(ws.idx) < maxAtoms && resid2 > target2 {
		// Select the atom with the largest |Dᵀr| among unselected ones.
		best, bestAbs := -1, 0.0
		for j := 0; j < l; j++ {
			if ws.selected[j] {
				continue
			}
			if ca := math.Abs(ws.alpha[j]); ca > bestAbs {
				best, bestAbs = j, ca
			}
		}
		if best < 0 || bestAbs == 0 {
			break
		}

		// Grow the Cholesky factor of G_φφ using only Gram entries.
		gRow := bc.gramRow(best)
		k := len(ws.idx)
		cross := ws.cross[:k]
		for i, jj := range ws.idx {
			cross[i] = gRow[jj]
		}
		if err := ws.chol.Append(cross, gRow[best]); err != nil {
			break
		}
		ws.selected[best] = true
		ws.idx = ws.idx[:k+1]
		ws.idx[k] = best
		ws.rows = ws.rows[:k+1]
		ws.rows[k] = gRow
		ws.gammaRHS = ws.gammaRHS[:k+1]
		ws.gammaRHS[k] = ws.alpha0[best]

		// γ = (G_φφ)⁻¹ (α⁰)_φ.
		ws.gamma = ws.gamma[:k+1]
		copy(ws.gamma, ws.gammaRHS)
		ws.chol.SolveInPlace(ws.gamma)

		// α = α⁰ - G[:, φ]·γ  (residual correlations without the residual;
		// G is symmetric so the cached rows serve as columns). Atoms whose
		// coefficient is exactly 0 contribute nothing and are skipped.
		ws.negGamma = ws.negGamma[:0]
		ws.liveRows = ws.liveRows[:0]
		for i, gi := range ws.gamma {
			if gi == 0 {
				continue
			}
			n := len(ws.negGamma)
			ws.negGamma = ws.negGamma[:n+1]
			ws.negGamma[n] = -gi
			ws.liveRows = ws.liveRows[:n+1]
			ws.liveRows[n] = ws.rows[i]
		}
		refreshAlpha(ws.alpha, ws.alpha0, ws.negGamma, ws.liveRows)

		// ‖r‖² = ‖a‖² - γᵀ(α⁰)_φ.
		resid2 = norm2a - mat.Dot(ws.gamma, ws.gammaRHS)
		if resid2 < 0 {
			resid2 = 0 // rounding can push it slightly negative
		}
	}
	return resid2, true
}

// refreshAlpha sets alpha = alpha0 + Σᵢ c[i]·rows[i], element by element in
// the order t = alpha0[j]; t += c[0]·rows[0][j]; t += c[1]·rows[1][j]; …
// That is exactly the order of copy(alpha, alpha0) followed by one
// mat.Axpy(c[i], rows[i], alpha) per row, so the bits match; the fused form
// only keeps the running sum in a register across rows. Rows go four to a
// pass over alpha (refresh4 and its narrower tails), each pass resliced so
// the loop carries no bounds checks: a single loop over an arbitrary number
// of rows cannot drop them, and measured slower than the separate axpys.
// Every row must hold at least len(alpha) entries.
func refreshAlpha(alpha, alpha0, c []float64, rows [][]float64) {
	if len(c) == 0 {
		copy(alpha, alpha0)
		return
	}
	src := alpha0
	for len(c) > 0 {
		switch len(c) {
		case 1:
			refresh1(alpha, src, c[0], rows[0])
		case 2:
			refresh2(alpha, src, c[0], c[1], rows[0], rows[1])
		case 3:
			refresh3(alpha, src, c[0], c[1], c[2], rows[0], rows[1], rows[2])
		default:
			refresh4(alpha, src, c[0], c[1], c[2], c[3], rows[0], rows[1], rows[2], rows[3])
		}
		n := min(len(c), 4)
		c, rows = c[n:], rows[n:]
		src = alpha
	}
}

// refresh4 sets dst[j] = src[j] + c0·r0[j] + c1·r1[j] + c2·r2[j] + c3·r3[j],
// adding left to right. dst and src may be the same slice.
func refresh4(dst, src []float64, c0, c1, c2, c3 float64, r0, r1, r2, r3 []float64) {
	n := len(dst)
	src, r0, r1, r2, r3 = src[:n], r0[:n], r1[:n], r2[:n], r3[:n]
	for j := range dst {
		t := src[j]
		t += c0 * r0[j]
		t += c1 * r1[j]
		t += c2 * r2[j]
		t += c3 * r3[j]
		dst[j] = t
	}
}

// refresh3 is refresh4 for three rows.
func refresh3(dst, src []float64, c0, c1, c2 float64, r0, r1, r2 []float64) {
	n := len(dst)
	src, r0, r1, r2 = src[:n], r0[:n], r1[:n], r2[:n]
	for j := range dst {
		t := src[j]
		t += c0 * r0[j]
		t += c1 * r1[j]
		t += c2 * r2[j]
		dst[j] = t
	}
}

// refresh2 is refresh4 for two rows.
func refresh2(dst, src []float64, c0, c1 float64, r0, r1 []float64) {
	n := len(dst)
	src, r0, r1 = src[:n], r0[:n], r1[:n]
	for j := range dst {
		t := src[j]
		t += c0 * r0[j]
		t += c1 * r1[j]
		dst[j] = t
	}
}

// refresh1 is refresh4 for one row.
func refresh1(dst, src []float64, c0 float64, r0 []float64) {
	n := len(dst)
	src, r0 = src[:n], r0[:n]
	for j := range dst {
		dst[j] = src[j] + c0*r0[j]
	}
}

// EncodePanel codes an ad-hoc panel of signals — each cols[i] a length-M
// column — in parallel across `workers` chunks of the shared mat worker
// pool, returning one Result per column in input order. It is the serving
// layer's batch entry: the request batcher coalesces independent client
// signals into one panel so the precomputed Gram structures amortize across
// users, without copying the signals into a Dense first. Columns are coded
// independently (each gets a fresh-reset workspace), so the results are
// bit-identical to coding the same columns one at a time, at any worker
// count.
func (bc *BatchCoder) EncodePanel(cols [][]float64, tol float64, maxAtoms, workers int) []Result {
	out := make([]Result, len(cols))
	if len(cols) == 0 {
		return out
	}
	if workers < 1 {
		workers = 1
	}
	mat.ParallelChunks(len(cols), workers, func(_, lo, hi int) {
		ws := &Workspace{}
		for j := lo; j < hi; j++ {
			out[j] = bc.Encode(cols[j], tol, maxAtoms, ws)
		}
	})
	return out
}

// chunkCodes is one EncodeColumns chunk's output: the sorted supports and
// coefficients of columns [lo, hi), concatenated in column order.
type chunkCodes struct {
	lo, hi int
	rowIdx []int
	val    []float64
}

// EncodeColumns codes every column of a (M×N) in parallel across `workers`
// chunks of the shared mat worker pool and assembles the coefficient matrix
// C (L×N) such that A ≈ D·C. It returns C and the total number of OMP
// iterations performed (used by the preprocessing-overhead accounting),
// which equals C's nonzero count: every iteration selects one atom.
// Columns are coded independently, so the result does not depend on the
// worker count.
//
// Each chunk writes its codes into buffers it owns, grown by doubling, and
// C is assembled once at the end; no per-column slices are allocated.
func (bc *BatchCoder) EncodeColumns(a *mat.Dense, tol float64, maxAtoms, workers int) (*sparse.CSC, int) {
	n, l := a.Cols, bc.D.Cols
	if workers < 1 {
		workers = 1
	}
	// A column holds at most this many codes (encode clamps maxAtoms the
	// same way).
	perCol := min(a.Rows, l)
	if maxAtoms > 0 && maxAtoms < perCol {
		perCol = maxAtoms
	}
	// colPtr[j+1] first holds column j's end offset within its chunk; the
	// chunk offsets are added during assembly.
	colPtr := make([]int, n+1)
	chunks := make([]chunkCodes, min(workers, n))

	mat.ParallelChunks(n, workers, func(c, lo, hi int) {
		ws := &Workspace{}
		col := make([]float64, a.Rows)
		out := chunkCodes{lo: lo, hi: hi}
		for j := lo; j < hi; j++ {
			a.Col(j, col)
			out.reserve(perCol)
			if _, coded := bc.encode(col, tol, maxAtoms, ws); coded {
				out.appendSorted(ws.idx, ws.gamma)
			}
			colPtr[j+1] = len(out.rowIdx)
		}
		chunks[c] = out
	})

	nnz := 0
	for _, ch := range chunks {
		nnz += len(ch.rowIdx)
	}
	rowIdx := make([]int, 0, nnz)
	val := make([]float64, 0, nnz)
	for _, ch := range chunks {
		for j := ch.lo; j < ch.hi; j++ {
			colPtr[j+1] += len(rowIdx)
		}
		rowIdx = append(rowIdx, ch.rowIdx...)
		val = append(val, ch.val...)
	}
	return &sparse.CSC{Rows: l, Cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, nnz
}

// reserve makes room for at least k more codes, doubling the capacity when
// it grows so a chunk reallocates only O(log nnz) times.
func (cc *chunkCodes) reserve(k int) {
	if len(cc.rowIdx)+k <= cap(cc.rowIdx) {
		return
	}
	newCap := max(2*cap(cc.rowIdx), len(cc.rowIdx)+k)
	rowIdx := make([]int, len(cc.rowIdx), newCap)
	val := make([]float64, len(cc.val), newCap)
	copy(rowIdx, cc.rowIdx)
	copy(val, cc.val)
	cc.rowIdx, cc.val = rowIdx, val
}

// appendSorted appends one column's support and coefficients, sorted by
// atom index, into capacity grown beforehand. An insertion sort suffices:
// supports are short and their indices distinct.
func (cc *chunkCodes) appendSorted(idx []int, coef []float64) {
	start := len(cc.rowIdx)
	cc.rowIdx = cc.rowIdx[:start+len(idx)]
	cc.val = cc.val[:start+len(idx)]
	ri, rv := cc.rowIdx[start:], cc.val[start:]
	for i, r := range idx {
		v := coef[i]
		p := i
		for ; p > 0 && ri[p-1] > r; p-- {
			ri[p], rv[p] = ri[p-1], rv[p-1]
		}
		ri[p], rv[p] = r, v
	}
}
