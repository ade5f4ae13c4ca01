package perf

import (
	"math"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/mat"
	"extdict/internal/sparse"
)

// TestRooflineTable evaluates every kernel contract a dist operator charges
// at one reference shape and pins its arithmetic intensity (flops ÷ bytes,
// rounded to 1e-4) and its roofline verdict against the default platform's
// machine balance. The shape is a mid-sized paper instance: M=512 signal
// rows, L=128 atoms, a 256-column rank window holding 8192 coefficients of
// C, and SGD batches of 64. A changed contract or balance fails here.
func TestRooflineTable(t *testing.T) {
	const m, l, w, nnz, b = 512, 128, 256, 8192, 64
	balance := cluster.NewPlatform(1, 1).MachineBalance()
	if math.Abs(balance-0.4) > 1e-9 {
		t.Fatalf("machine balance %v, want 0.4", balance)
	}
	dotF, dotB := mat.DotCost(w)
	zeroF, zeroB := mat.ZeroCost(w)
	axpyF, axpyB := mat.AxpyCost(w)
	denseF, denseB := mat.MulVecCost(m, w)
	cscF, cscB := sparse.MulVecCost(l, w, nnz)
	dictF, dictB := mat.MulVecCost(m, l)
	for _, tc := range []struct {
		name         string
		flops, bytes int64
		want         float64
	}{
		// SGD: B dots, then one Zero, B axpys and the B scaling multiplies.
		{"BatchGram/dots", b * dotF, b * dotB, 0.125},
		{"BatchGram/scatter", zeroF + b*axpyF + b, zeroB + b*axpyB, 0.0831},
		// Either dense product over the M×w column window.
		{"DenseGram", denseF, denseB, 0.2485},
		// Either sparse product over the L×w block of C.
		{"ExDGram/C", cscF, cscB, 0.1203},
		// Either dictionary product over the M×L dictionary D.
		{"ExDGram/D", dictF, dictB, 0.2476},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := math.Round(float64(tc.flops)/float64(tc.bytes)*1e4) / 1e4
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("intensity %v (%d flops / %d bytes), want %v", got, tc.flops, tc.bytes, tc.want)
			}
			if got >= balance {
				t.Errorf("intensity %v is compute-bound at balance %v; every charged kernel is bandwidth-bound", got, balance)
			}
		})
	}
}

// TestCapacityTable evaluates each operator's worst-rank resident set at
// the evaluation configurations of Fig. 4, Table 2 and Fig. 7 plus a
// 5-billion-coefficient corpus, two ways: from the storage contracts and
// scratch the dist constructors size it from, and from the predictors'
// MemoryWordsPerRank. Both must equal the committed bytes per rank, and the
// verdict against the default per-rank RAM must hold. Shares are the
// uniform n/P partition.
func TestCapacityTable(t *testing.T) {
	capacity := cluster.NewPlatform(1, 1).MemBytesCapacity()
	if capacity != 2147483648 {
		t.Fatalf("per-rank capacity %d, want 2 GiB", capacity)
	}
	const fits, ooc = "fits", "needs-out-of-core"
	for _, c := range []struct {
		name               string
		m, n, l, nnz, p, b int
		batch, dense, exd  int64 // committed bytes per rank
		verdict            string
	}{
		{"fig4-salinas", 96, 16384, 192, 262144, 1, 64, 12583424, 12583680, 4476680, fits},
		{"tab2-cancercell", 128, 16384, 256, 524288, 4, 64, 16777728, 4195328, 2397192, fits},
		{"fig7-lightfield", 192, 24576, 256, 245760, 64, 64, 37749248, 591360, 463368, fits},
		{"roadmap5-5Bnnz", 512, 100_000_000, 2048, 5_000_000_000, 8, 64, 409600000512, 51200004096, 10108425480, ooc},
	} {
		t.Run(c.name, func(t *testing.T) {
			plat := cluster.NewPlatform(1, c.p)
			w, share := c.n/c.p, int64(c.nnz/c.p)
			dense := func(r, cols int) int64 { return (&mat.Dense{Rows: r, Cols: cols}).ResidentBytes() }
			// Rank 0's ExDGram set: its C block, scratch vl1, vl2 (L) and
			// vm (M), and D (rank 0 holds it in Case 1, every rank in
			// Case 2).
			exd := sparse.ResidentBytes(w, share) + 8*(2*int64(c.l)+int64(c.m)) + dense(c.m, c.l)
			rows := []struct {
				op           string
				contract     int64
				predictWords float64
				want         int64
			}{
				{"BatchGram", dense(c.m, c.n) + 8*int64(c.b), PredictSGD(c.m, c.n, c.b, plat).MemoryWordsPerRank, c.batch},
				{"DenseGram", dense(c.m, w) + 8*int64(c.m), PredictDense(c.m, c.n, plat).MemoryWordsPerRank, c.dense},
				{"ExDGram", exd, PredictTransformed(c.m, c.n, c.l, c.nnz, plat).MemoryWordsPerRank, c.exd},
			}
			for _, r := range rows {
				if r.contract != r.want {
					t.Errorf("%s: contracts give %d resident bytes per rank, want %d", r.op, r.contract, r.want)
				}
				if got := int64(r.predictWords) * 8; got != r.want {
					t.Errorf("%s: perf predicts %d resident bytes per rank, want %d", r.op, got, r.want)
				}
				verdict := fits
				if r.contract > capacity {
					verdict = ooc
				}
				if verdict != c.verdict {
					t.Errorf("%s: verdict %s, want %s", r.op, verdict, c.verdict)
				}
			}
		})
	}
}
