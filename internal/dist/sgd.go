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
	comm     *cluster.Comm
	a        *mat.Dense
	ranges   [][2]int    // per-rank column ranges (speed-weighted)
	scratch  [][]float64 // per-rank B-vector; Apply runs allocation-free
	resident int64       // every rank's resident bytes, charged by every Apply
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
	// Resident set (Eq. 4): batch extraction reads rows of the whole M×N
	// matrix, so all of A stays resident on every rank — SGD's "no memory
	// savings" (§VIII-A): row access defeats the column partitioning —
	// plus the rank's B-vector scratch.
	g.resident = a.ResidentBytes() + floatBytes(g.scratch[0])
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
		nb := int64(len(batch))
		r.AddResident(g.resident)

		// v = A_b,i·x_i: one dot product per batch row over the local block,
		// through the unrolled kernel.
		v := g.scratch[r.ID][:len(batch)]
		xi := x[lo:hi]
		for bi, row := range batch {
			rowSlice := g.a.Row(row)[lo:hi]
			v[bi] = mat.Dot(rowSlice, xi)
		}
		flops, bytes := mat.DotCost(ni)
		r.Charge(nb*flops, nb*bytes)

		// Share the B-vector: SGD's entire communication.
		r.Allreduce(v)

		// y_i = scale · A_b,iᵀ·v, one unrolled axpy per batch row.
		yi := y[lo:hi]
		mat.Zero(yi)
		for bi, row := range batch {
			rowSlice := g.a.Row(row)[lo:hi]
			mat.Axpy(v[bi]*scale, rowSlice, yi)
		}
		// One Zero and B Axpys, plus the B scaling multiplies v[bi]*scale.
		zf, zb := mat.ZeroCost(ni)
		af, ab := mat.AxpyCost(ni)
		r.Charge(zf+nb*af+nb, zb+nb*ab)
	})
}
