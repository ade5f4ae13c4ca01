// Package fixture exercises allocmodel: run as extdict/internal/dist. Each
// rank body's AddResident claims are checked against the resident-set
// polynomial derived from the operator's constructor contracts (per-rank
// slot payloads charged at entry, shared matrix fields at first touch) plus
// in-region transient allocations. Exact claims stay quiet; wrong claims,
// unclaimed residency, per-iteration accounting, opaque allocation sizes,
// and allocations escaping into fields are all flagged. A held type that
// reports its own footprint must report it exactly, and its holder must
// claim it.
package fixture

import (
	"extdict/internal/cluster"
	"extdict/internal/mat"
	"extdict/internal/sparse"
)

// winOp holds a dense per-rank column window (blocks[]) plus the shared
// source matrix d — the DenseGram shape.
type winOp struct {
	d      *mat.Dense
	blocks []*mat.Dense
	m, w   int
	lcol   int
}

func newWinOp(d *mat.Dense, p, w int) *winOp {
	g := &winOp{d: d, blocks: make([]*mat.Dense, p), m: d.Rows, w: w, lcol: d.Cols}
	for i := 0; i < p; i++ {
		g.blocks[i] = d.ColRange(0, w)
	}
	return g
}

// apply claims its entry slots (8·m·w), both transient buffers, and the
// shared source at first touch — exact, so no finding.
func (g *winOp) apply(r *cluster.Rank, x []float64) []float64 {
	v := make([]float64, g.m)
	g.blocks[r.ID].MulVec(x, v)
	y := make([]float64, g.lcol)
	g.d.MulVecT(v, y)
	r.AddResident(8*int64(g.m)*int64(g.w) + 8*int64(g.m) + 8*int64(g.lcol) + 8*int64(g.m)*int64(g.lcol))
	return y
}

// applyShort touches the shared source matrix but claims only the entry
// slots: the resident set is under-counted.
func (g *winOp) applyShort(r *cluster.Rank, x, v []float64) {
	g.d.MulVec(x, v)
	r.AddResident(8 * int64(g.m) * int64(g.w)) // want "AddResident claims"
}

// sliceOp holds per-rank CSC column slices with the precomputed nnz alias
// plus a shared dictionary — the ExDGram shape.
type sliceOp struct {
	d      *mat.Dense
	blocks []*sparse.CSC
	nnz    []int64
	m, l   int
}

func newSliceOp(d *mat.Dense, c *sparse.CSC, p int) *sliceOp {
	g := &sliceOp{d: d, blocks: make([]*sparse.CSC, p), nnz: make([]int64, p), m: d.Rows, l: d.Cols}
	for i := 0; i < p; i++ {
		g.blocks[i] = c.ColSliceRange(0, 4)
		g.nnz[i] = int64(g.blocks[i].NNZ())
	}
	return g
}

// applyGuarded claims the CSC slot payload and its transient at entry —
// exact, quiet — then under-counts the dictionary whose first touch sits
// under the rank-0 guard: the guarded region's claim fires.
func (g *sliceOp) applyGuarded(r *cluster.Rank, x, y []float64) {
	v := make([]float64, g.l)
	g.blocks[r.ID].MulVec(x, v)
	r.AddResident(16*g.nnz[r.ID] + 40 + 8*int64(g.l))
	if r.ID == 0 {
		g.d.MulVec(v, y)
		r.AddResident(8 * int64(g.m)) // want "AddResident claims"
	}
}

// Apply delegates to applyGuarded, which owns the residency claims: the
// wrapper is not entry-charged, so it stays quiet with no claim at all.
func (g *sliceOp) Apply(r *cluster.Rank, x, y []float64) {
	g.applyGuarded(r, x, y)
}

// cacheOp's constructor declares no buffer, but fill establishes one.
type cacheOp struct {
	buf []float64
	n   int
}

// fill stores its allocation through a field: the bytes are priced (the
// claim is exact, so no mismatch) but the escape itself is a finding —
// persistent state must be established in the constructor.
func (g *cacheOp) fill(r *cluster.Rank) {
	g.buf = make([]float64, g.n) // want "allocation escapes the rank body"
	r.AddResident(8 * int64(g.n))
}

// inLoop: residency is a high-water mark; per-iteration accounting inside
// the loop cannot be folded into a static polynomial.
func inLoop(r *cluster.Rank, n int) {
	for i := 0; i < n; i++ { // want "AddResident inside a loop"
		v := make([]float64, n)
		v[0] = 1
		r.AddResident(8 * int64(n))
	}
}

func mystery() int { return 3 }

// opaque: an allocation sized by a call the analyzer cannot resolve makes
// the region's resident set underivable.
func opaque(r *cluster.Rank) {
	v := make([]float64, mystery())
	v[0] = 1
	r.AddResident(24) // want "cannot derive a symbolic resident-set size"
}

// uncovered: a transient allocation with no AddResident at all leaves the
// entry point's capacity polynomial under-counting.
func uncovered(r *cluster.Rank, n int) {
	_ = make([]float64, n) // want "not covered by any AddResident"
}

// stepper is a dictionary hop: a held type that reports its own resident
// footprint. Its holder charges 8·ResidentWords; its own rank methods are
// not charged for its fields.
type stepper interface {
	fwd(r *cluster.Rank, x, y []float64)
	ResidentWords() int64
}

// dictStep reports its matrix exactly: fwd touches it with no claim, quiet.
type dictStep struct {
	d    *mat.Dense
	m, l int
}

func newDictStep(d *mat.Dense) *dictStep {
	h := &dictStep{d: d, m: d.Rows, l: d.Cols}
	return h
}

func (h *dictStep) fwd(r *cluster.Rank, x, y []float64) {
	h.d.MulVec(x, y)
}

func (h *dictStep) ResidentWords() int64 { return int64(h.m) * int64(h.l) }

// shortStep under-reports its matrix: the holder's claim would be short.
type shortStep struct { // want "AddResident claims 8\*m but the region.s resident set is 8\*l\*m bytes"
	d    *mat.Dense
	m, l int
}

func newShortStep(d *mat.Dense) *shortStep {
	h := &shortStep{d: d, m: d.Rows, l: d.Cols}
	return h
}

func (h *shortStep) fwd(r *cluster.Rank, x, y []float64) {
	h.d.MulVec(x, y)
}

func (h *shortStep) ResidentWords() int64 { return int64(h.m) }

// opaqueStep reports a footprint the analysis cannot resolve.
type opaqueStep struct { // want "cannot derive a symbolic resident-set size"
	d *mat.Dense
	m int
}

func (h *opaqueStep) fwd(r *cluster.Rank, x, y []float64) {}

func (h *opaqueStep) ResidentWords() int64 { return int64(mystery()) }

// hopOp holds a stepper and charges its footprint at first touch.
type hopOp struct {
	step  stepper
	words int64
}

func newHopOp(s stepper) *hopOp {
	g := &hopOp{step: s}
	g.words = g.step.ResidentWords()
	return g
}

// applyGuarded runs the hop on rank 0 only and charges it there: quiet.
func (g *hopOp) applyGuarded(r *cluster.Rank, x, y []float64) {
	if r.ID == 0 {
		g.step.fwd(r, x, y)
		r.AddResident(8 * g.words)
	}
}

// applyUnclaimed runs the hop without charging its footprint.
func (g *hopOp) applyUnclaimed(r *cluster.Rank, x, y []float64) {
	g.step.fwd(r, x, y) // want "not covered by any AddResident"
}
