// Package dist implements the paper's distributed computing model
// (Algorithm 2): iterative Gram-matrix products executed across the ranks of
// a simulated cluster, with the exact data partitioning, replication, and
// reduce/broadcast schedule the paper proves communication-optimal.
//
// All operators expose the same Gram product y = AᵀA·x (or its transformed
// equivalent (DC)ᵀDC·x), so the learning algorithms in the solver package
// are agnostic to which representation — raw data, ExD, or any baseline
// projection — backs the iteration. That interchangeability is the
// framework's central claim.
package dist

import (
	"fmt"

	"extdict/internal/cluster"
	"extdict/internal/mat"
	"extdict/internal/sparse"
)

// Operator applies one distributed Gram-matrix product.
type Operator interface {
	// Dim returns the dimension N of the operator (columns of A).
	Dim() int
	// Apply computes y = G·x as one distributed iteration and returns the
	// iteration's statistics. x and y must have length Dim; y is
	// overwritten. Implementations must tolerate x aliasing y being false
	// (never alias them).
	Apply(x, y []float64) cluster.Stats
	// Name identifies the operator for reports.
	Name() string
}

// BlockRange returns the half-open column range [lo, hi) that rank i of p
// owns under the paper's iN/P partitioning.
func BlockRange(n, p, i int) (lo, hi int) {
	return i * n / p, (i + 1) * n / p
}

// WeightedBlockRanges partitions [0, n) into len(weights) contiguous ranges
// whose sizes are proportional to the weights — the load-balanced mapping
// for heterogeneous platforms where ranks differ in flop rate. With uniform
// weights it reduces exactly to BlockRange.
func WeightedBlockRanges(n int, weights []float64) [][2]int {
	p := len(weights)
	out := make([][2]int, p)
	var total float64
	for _, w := range weights {
		total += w
	}
	acc := 0.0
	prev := 0
	for i, w := range weights {
		acc += w
		hi := int(acc / total * float64(n))
		if i == p-1 {
			hi = n
		}
		if hi < prev {
			hi = prev
		}
		out[i] = [2]int{prev, hi}
		prev = hi
	}
	return out
}

// rangesFor partitions n columns across the communicator's ranks,
// load-balanced by rank speed on heterogeneous platforms. It asks the
// communicator — not the platform — for the speeds, so a communicator
// shrunk after a rank crash partitions over exactly the surviving ranks.
func rangesFor(comm *cluster.Comm, n int) [][2]int {
	return WeightedBlockRanges(n, comm.RankSpeeds())
}

// DenseGram is the untransformed baseline: y = AᵀA·x with A partitioned by
// columns across ranks. Each iteration computes v_i = A_i·x_i locally,
// allreduces the M-vector v = Σv_i, then computes y_i = A_iᵀ·v — moving
// min-communication M words on the critical path.
type DenseGram struct {
	comm     *cluster.Comm
	blocks   []*mat.Dense // per-rank column blocks of A
	ranges   [][2]int     // per-rank column ranges (speed-weighted)
	scratch  [][]float64  // per-rank M-vector v_i; Apply runs allocation-free
	resident []int64      // per-rank resident bytes, charged by every Apply
	n, m     int
}

// NewDenseGram partitions a (M×N) across the communicator's ranks.
func NewDenseGram(comm *cluster.Comm, a *mat.Dense) *DenseGram {
	p := comm.P()
	g := &DenseGram{
		comm: comm, n: a.Cols, m: a.Rows,
		blocks:   make([]*mat.Dense, p),
		ranges:   rangesFor(comm, a.Cols),
		scratch:  make([][]float64, p),
		resident: make([]int64, p),
	}
	for i := 0; i < p; i++ {
		g.blocks[i] = a.ColRange(g.ranges[i][0], g.ranges[i][1])
		g.scratch[i] = make([]float64, g.m)
		// Resident set (Eq. 4): the rank's column window plus its scratch.
		g.resident[i] = g.blocks[i].ResidentBytes() + floatBytes(g.scratch[i])
	}
	return g
}

// floatBytes is the footprint of float64 buffers: 8 bytes per element.
func floatBytes(bufs ...[]float64) int64 {
	var n int
	for _, b := range bufs {
		n += len(b)
	}
	return 8 * int64(n)
}

// Dim implements Operator.
func (g *DenseGram) Dim() int { return g.n }

// Name implements Operator.
func (g *DenseGram) Name() string { return "AᵀA" }

// Apply implements Operator.
func (g *DenseGram) Apply(x, y []float64) cluster.Stats {
	if len(x) != g.n || len(y) != g.n {
		panic("dist: DenseGram.Apply length mismatch")
	}
	return g.comm.Run(func(r *cluster.Rank) {
		lo, hi := g.ranges[r.ID][0], g.ranges[r.ID][1]
		blk := g.blocks[r.ID]
		r.AddResident(g.resident[r.ID])

		// v_i = A_i·x_i. The pool-parallel kernel splits rows across idle
		// cores; its contract is the serial one.
		v := blk.ParMulVec(x[lo:hi], g.scratch[r.ID])
		r.Charge(mat.MulVecCost(blk.Rows, blk.Cols))

		// v = Σ v_i across ranks; everyone needs it for step 2.
		r.Allreduce(v)

		// y_i = A_iᵀ·v.
		blk.ParMulVecT(v, y[lo:hi])
		r.Charge(mat.MulVecCost(blk.Rows, blk.Cols))
	})
}

// ExDGram executes Algorithm 2 on a transformed pair (D, C):
// y = Cᵀ·Dᵀ·D·C·x, with D a dense M×L dictionary. The schedule depends on
// the regime only:
//
//   - Case 1 (L ≤ M): D is stored only on rank 0. Ranks reduce the
//     L-vector v¹ = Σ C_i·x_i to rank 0, which computes v³ = Dᵀ(D·v¹)
//     alone and broadcasts the L-vector back; ranks finish with C_iᵀ·v³.
//     Critical-path words: 2·L.
//
//   - Case 2 (L > M): D is replicated on every rank. Ranks compute
//     v² = D·(C_i·x_i) locally, reduce the M-vector to rank 0, get the
//     M-vector back, and redundantly compute C_iᵀ·(Dᵀ·v). Critical-path
//     words: 2·M.
//
// Either way the communicated volume is 2·min(M, L) per iteration — the
// paper's optimal bound (§VI-B).
type ExDGram struct {
	comm     *cluster.Comm
	d        *mat.Dense
	blocks   []*sparse.CSC // per-rank column blocks of C
	ranges   [][2]int      // per-rank column ranges (speed-weighted)
	scratch  []exdScratch  // per-rank buffers; Apply runs allocation-free
	resident []int64       // per-rank resident bytes, charged by every Apply
	n        int
	l, m     int
	name     string
}

// exdScratch holds one rank's reusable vectors for both Algorithm 2 cases:
// two L-vectors (v¹ and, in Case 2, Dᵀ·v) and one M-vector (D·v¹) — on
// every rank, whichever ranks run D's steps.
type exdScratch struct {
	vl1, vl2 []float64
	vm       []float64
}

// NewExDGram partitions C by columns and places D according to the case.
func NewExDGram(comm *cluster.Comm, d *mat.Dense, c *sparse.CSC) (*ExDGram, error) {
	return NewTransformedGram(comm, d, c, "ExD")
}

// NewTransformedGram builds the Algorithm 2 operator for any projection
// A ≈ D·C (ExD or a baseline transform), labeled for reports. It partitions
// C, sizes every rank's scratch for D, and fixes each rank's resident set
// (Eq. 4): its CSC block and scratch, plus D on rank 0 (Case 1) or on every
// rank (Case 2).
func NewTransformedGram(comm *cluster.Comm, d *mat.Dense, c *sparse.CSC, name string) (*ExDGram, error) {
	if d.Cols != c.Rows {
		return nil, fmt.Errorf("dist: D is %dx%d but C has %d rows", d.Rows, d.Cols, c.Rows)
	}
	p := comm.P()
	g := &ExDGram{
		comm: comm, d: d, n: c.Cols, l: d.Cols, m: d.Rows,
		blocks:   make([]*sparse.CSC, p),
		ranges:   rangesFor(comm, c.Cols),
		scratch:  make([]exdScratch, p),
		resident: make([]int64, p),
		name:     name,
	}
	for i := 0; i < p; i++ {
		g.blocks[i] = c.ColSliceRange(g.ranges[i][0], g.ranges[i][1])
		g.scratch[i] = exdScratch{
			vl1: make([]float64, g.l),
			vl2: make([]float64, g.l),
			vm:  make([]float64, g.m),
		}
		s := g.scratch[i]
		g.resident[i] = g.blocks[i].ResidentBytes() + floatBytes(s.vl1, s.vl2, s.vm)
		if i == 0 || g.CaseTwo() {
			g.resident[i] += d.ResidentBytes()
		}
	}
	return g, nil
}

// Dim implements Operator.
func (g *ExDGram) Dim() int { return g.n }

// Name implements Operator.
func (g *ExDGram) Name() string { return g.name }

// CaseTwo reports whether the replicated-dictionary schedule is in use.
func (g *ExDGram) CaseTwo() bool { return g.l > g.m }

// Apply implements Operator.
func (g *ExDGram) Apply(x, y []float64) cluster.Stats {
	if len(x) != g.n || len(y) != g.n {
		panic("dist: ExDGram.Apply length mismatch")
	}
	if g.CaseTwo() {
		return g.comm.Run(func(r *cluster.Rank) { g.applyCase2(r, x, y) })
	}
	return g.comm.Run(func(r *cluster.Rank) { g.applyCase1(r, x, y) })
}

// applyCase1 is Algorithm 2, Case 1 (L ≤ M): D lives on rank 0 only.
func (g *ExDGram) applyCase1(r *cluster.Rank, x, y []float64) {
	lo, hi := g.ranges[r.ID][0], g.ranges[r.ID][1]
	blk := g.blocks[r.ID]
	r.AddResident(g.resident[r.ID])

	// Step 1: v¹_i = C_i·x_i.
	v1 := blk.MulVec(x[lo:hi], g.scratch[r.ID].vl1)
	r.Charge(blk.MulVecCost())

	// Steps 3-4: reduce v¹ to rank 0 (L words on the path).
	r.Reduce(v1, 0)

	if r.ID == 0 {
		// Steps 4-5 on rank 0 only: v² = D·v¹ then v³ = Dᵀ·v², in place
		// in v¹. D is resident here and nowhere else — the memory saving
		// that defines Case 1.
		g.d.ParMulVec(v1, g.scratch[r.ID].vm)
		r.Charge(mat.MulVecCost(g.m, g.l))
		g.d.ParMulVecT(g.scratch[r.ID].vm, v1)
		r.Charge(mat.MulVecCost(g.m, g.l))
	}

	// Step 6: broadcast v³ (L words).
	r.Broadcast(v1, 0)

	// Step 7: y_i = C_iᵀ·v³.
	blk.MulVecT(v1, y[lo:hi])
	r.Charge(blk.MulVecCost())
}

// applyCase2 is Algorithm 2, Case 2 (L > M): D replicated everywhere.
func (g *ExDGram) applyCase2(r *cluster.Rank, x, y []float64) {
	lo, hi := g.ranges[r.ID][0], g.ranges[r.ID][1]
	blk := g.blocks[r.ID]
	r.AddResident(g.resident[r.ID])

	// Step 1: v¹_i = C_i·x_i.
	v1 := blk.MulVec(x[lo:hi], g.scratch[r.ID].vl1)
	r.Charge(blk.MulVecCost())

	// Step 3: v²_i = D·v¹_i locally (the replication saves words later).
	// The D replica is in every rank's resident set — the memory price
	// Case 2 pays for its 2·M communication bound.
	g.d.ParMulVec(v1, g.scratch[r.ID].vm)
	r.Charge(mat.MulVecCost(g.m, g.l))

	// Steps 4-6: v = Σ v²_i, everywhere (M words each way).
	r.Allreduce(g.scratch[r.ID].vm)

	// Step 7: y_i = C_iᵀ·(Dᵀ·v) — the Dᵀ·v multiply is redundant on every
	// rank; that is the price Case 2 pays to keep communication at M.
	g.d.ParMulVecT(g.scratch[r.ID].vm, g.scratch[r.ID].vl2)
	r.Charge(mat.MulVecCost(g.m, g.l))
	blk.MulVecT(g.scratch[r.ID].vl2, y[lo:hi])
	r.Charge(blk.MulVecCost())
}
