package dist

import (
	"extdict/internal/cluster"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// BatchGram is the stochastic operator behind the SGD baseline (§VIII-A):
// each Apply draws a fresh uniform batch of B rows of A and computes
//
//	y = (M/B) · A_bᵀ·A_b·x,
//
// an unbiased estimator of AᵀA·x. Columns of A are partitioned across ranks
// exactly as in DenseGram, so each rank extracts the batch rows of its own
// block locally; the only communication is the allreduce of the B-vector
// A_b·x — which is why SGD's per-iteration communication (B words) undercuts
// ExtDict's min(M, L), at the price of many more iterations and no memory
// savings (the full A stays resident).
type BatchGram struct {
	comm    *cluster.Comm
	a       *mat.Dense
	ranges  [][2]int    // per-rank column ranges (speed-weighted)
	scratch [][]float64 // per-rank B-vector; Apply runs allocation-free
	// B is the batch size (paper experiments: 64).
	B   int
	rng *rng.RNG
	n   int
}

// NewBatchGram builds the SGD operator over the full data matrix with the
// given batch size and a seeded batch schedule.
func NewBatchGram(comm *cluster.Comm, a *mat.Dense, batch int, seed uint64) *BatchGram {
	if batch < 1 || batch > a.Rows {
		batch = min(64, a.Rows)
	}
	g := &BatchGram{
		comm: comm, a: a, B: batch, rng: rng.New(seed), n: a.Cols,
		ranges:  rangesFor(comm, a.Cols),
		scratch: make([][]float64, comm.P()),
	}
	for i := range g.scratch {
		g.scratch[i] = make([]float64, batch)
	}
	return g
}

// Dim implements Operator.
func (g *BatchGram) Dim() int { return g.n }

// Name implements Operator.
func (g *BatchGram) Name() string { return "SGD" }

// Apply implements Operator. Each call consumes one batch from the seeded
// schedule, so repeated Apply calls walk the SGD iteration sequence.
func (g *BatchGram) Apply(x, y []float64) cluster.Stats {
	if len(x) != g.n || len(y) != g.n {
		panic("dist: BatchGram.Apply length mismatch")
	}
	// The batch is drawn once (rank 0's job in a real deployment; the seed
	// is shared so no communication is needed for it).
	batch := g.rng.Subset(g.a.Rows, g.B)
	scale := float64(g.a.Rows) / float64(g.B)
	return g.comm.Run(func(r *cluster.Rank) {
		lo, hi := g.ranges[r.ID][0], g.ranges[r.ID][1]
		ni := hi - lo

		// Resident set (Eq. 4): the rank's B-vector scratch. The full data
		// matrix joins below, at its first touch.
		r.AddResident(8 * int64(g.B))

		// v = A_b,i·x_i: one dot product per batch row over the local block,
		// through the unrolled kernel (2·B·n_i flops, the Dot contract).
		v := g.scratch[r.ID][:len(batch)]
		xi := x[lo:hi]
		for bi, row := range batch {
			rowSlice := g.a.Row(row)[lo:hi]
			v[bi] = mat.Dot(rowSlice, xi)
		}
		r.AddFlops(2 * int64(len(batch)) * int64(ni))
		// Each Dot streams both operands once: 16·n_i bytes per batch row.
		r.AddBytes(16 * int64(len(batch)) * int64(ni))
		// Batch extraction reads rows of the whole M×N matrix, so all of A
		// stays resident — SGD's "no memory savings" (§VIII-A): row access
		// defeats the column partitioning, and every rank keeps full A.
		r.AddResident(8 * int64(g.a.Rows) * int64(g.n))

		// Share the B-vector: SGD's entire communication.
		r.Allreduce(v)

		// y_i = scale · A_b,iᵀ·v, one unrolled axpy per batch row.
		yi := y[lo:hi]
		mat.Zero(yi)
		for bi, row := range batch {
			rowSlice := g.a.Row(row)[lo:hi]
			mat.Axpy(v[bi]*scale, rowSlice, yi)
		}
		// 2·B·n_i multiply-adds (Eq. 3) plus the B scaling multiplies
		// v[bi]*scale.
		r.AddFlops(int64(len(batch)) + 2*int64(len(batch))*int64(ni))
		// Zero writes the n_i output once; each Axpy then streams the row,
		// and reads + rewrites the output: 8·n_i + 24·B·n_i bytes.
		r.AddBytes(8*int64(ni) + 24*int64(len(batch))*int64(ni))
	})
}
