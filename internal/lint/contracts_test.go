package lint

import (
	"math"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/mat"
	"extdict/internal/perf"
	"extdict/internal/sparse"
)

// The kernel cost contracts — mat.MulVecCost, sparse.MulVecCost and
// sparse.ResidentBytes — are the static cost model: the dist operators charge what they return
// and perf prices Eqs. 2-4 from them. The tests below close the loop
// between that model and the simulator's runtime counters, the way
// TestStaticTraceMatchesRuntime closes it for the collective schedule.

// The flop, byte and roofline tests share one Case 1 instance — M=30, L=20,
// N=80 on four ranks — and compose each rank's contracts by hand against
// the runtime counters of a real Apply.
const conM, conL, conN, conP = 30, 20, 80, 4

// case1Instance builds the shared instance and returns it with each rank's
// block of C.
func case1Instance(t *testing.T) (*dist.ExDGram, []*sparse.CSC) {
	t.Helper()
	tr := fitTransform(t, genMatrix(t, conM, conN, 10), conL)
	plat := cluster.NewPlatform(1, conP)
	g, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	if g.CaseTwo() {
		t.Fatalf("L=%d M=%d must run Case 1", conL, conM)
	}
	var blocks []*sparse.CSC
	for _, r := range dist.WeightedBlockRanges(conN, plat.RankSpeeds()) {
		blocks = append(blocks, tr.C.ColSliceRange(r[0], r[1]))
	}
	return g, blocks
}

// case1Charges composes rank i's contracts in one Case 1 Apply: two CSC
// products over its block of C and, on rank 0 — where Case 1 holds D — the
// two dense dictionary steps.
func case1Charges(blk *sparse.CSC, rank int) (flops, bytes int64) {
	f, b := blk.MulVecCost()
	flops, bytes = 2*f, 2*b
	if rank == 0 {
		stepF, stepB := mat.MulVecCost(conM, conL)
		flops += 2 * stepF
		bytes += 2 * stepB
	}
	return flops, bytes
}

// applyZero runs one Apply of op on a zero vector and returns its stats.
func applyZero(op dist.Operator) cluster.Stats {
	return op.Apply(make([]float64, op.Dim()), make([]float64, op.Dim()))
}

// TestCostModelSymbolicFlops checks every rank's runtime flop count of a
// Case 1 Apply against the kernel contracts that rank runs: a charge site
// dropped, doubled or moved to another rank fails here, whatever the
// contracts' values.
func TestCostModelSymbolicFlops(t *testing.T) {
	g, blocks := case1Instance(t)
	st := applyZero(g)
	var total int64
	for i, blk := range blocks {
		want, _ := case1Charges(blk, i)
		if st.FlopsPerRank[i] != want {
			t.Errorf("rank %d: runtime %d flops, contracts give %d", i, st.FlopsPerRank[i], want)
		}
		total += want
	}
	if st.TotalFlops != total || total == 0 {
		t.Errorf("runtime %d flops in total, contracts give %d", st.TotalFlops, total)
	}
}

// TestMemModelSymbolicBytes is TestCostModelSymbolicFlops for the byte
// contracts: every rank's runtime kernel traffic must equal the CSC
// contracts over its block plus, on rank 0, the dictionary round trip.
func TestMemModelSymbolicBytes(t *testing.T) {
	g, blocks := case1Instance(t)
	st := applyZero(g)
	var total int64
	for i, blk := range blocks {
		_, want := case1Charges(blk, i)
		if st.BytesPerRank[i] != want {
			t.Errorf("rank %d: runtime %d bytes, contracts give %d", i, st.BytesPerRank[i], want)
		}
		total += want
	}
	if st.TotalBytes != total || total == 0 {
		t.Errorf("runtime %d bytes in total, contracts give %d", st.TotalBytes, total)
	}
}

// TestRooflineAgreesWithRuntimeCounters checks that the arithmetic
// intensity the contracts predict is the one the machine counts: each
// rank's runtime flops ÷ bytes equals its composed contracts' ratio, and
// the bandwidth-bound verdicts TestRooflineTable pins for the CSC block and
// the dictionary step hold for the runtime ratio against the default
// platform's machine balance.
func TestRooflineAgreesWithRuntimeCounters(t *testing.T) {
	balance := cluster.NewPlatform(1, conP).MachineBalance()
	if stepF, stepB := mat.MulVecCost(conM, conL); float64(stepF)/float64(stepB) >= balance {
		t.Errorf("dictionary step: contract intensity %v is compute-bound at balance %v", float64(stepF)/float64(stepB), balance)
	}
	g, blocks := case1Instance(t)
	st := applyZero(g)
	for i, blk := range blocks {
		flops, bytes := case1Charges(blk, i)
		want := float64(flops) / float64(bytes)
		got := float64(st.FlopsPerRank[i]) / float64(st.BytesPerRank[i])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("rank %d: runtime intensity %v, contracts give %v", i, got, want)
		}
		if got >= balance {
			t.Errorf("rank %d: runtime intensity %v is compute-bound at balance %v", i, got, balance)
		}
	}
}

// TestCapacityAgreesWithRuntime checks every rank's runtime resident set of
// a Case 1 Apply against the storage contracts: its CSC block's footprint,
// two L-length workspaces and the M-length partial product, plus D's
// footprint on rank 0 only.
func TestCapacityAgreesWithRuntime(t *testing.T) {
	g, blocks := case1Instance(t)
	st := applyZero(g)
	if len(st.PeakResidentPerRank) != conP {
		t.Fatalf("runtime reported %d resident ranks, want %d", len(st.PeakResidentPerRank), conP)
	}
	for i, blk := range blocks {
		want := sparse.ResidentBytes(blk.Cols, int64(blk.NNZ())) + 8*(2*conL+conM)
		if i == 0 {
			want += (&mat.Dense{Rows: conM, Cols: conL}).ResidentBytes()
		}
		if st.PeakResidentPerRank[i] != want {
			t.Errorf("rank %d: runtime resident %d bytes, contracts give %d", i, st.PeakResidentPerRank[i], want)
		}
	}
}

// capacityConfig is one shipped evaluation configuration of the capacity
// table (Fig. 4, Table 2, Fig. 7): the shape, the rank count, SGD's batch,
// and the committed worst-rank resident bytes of each operator.
type capacityConfig struct {
	name               string
	m, n, l, nnz, p, b int
	batch, dense, exd  int64
}

var shippedConfigs = []capacityConfig{
	{"fig4-salinas", 96, 16384, 192, 262144, 1, 64, 12583424, 12583680, 4476680},
	{"tab2-cancercell", 128, 16384, 256, 524288, 4, 64, 16777728, 4195328, 2397192},
	{"fig7-lightfield", 192, 24576, 256, 245760, 64, 64, 37749248, 591360, 463368},
}

// capacityRun is one operator run at a shipped configuration: the runtime
// worst-rank resident set, perf's MemoryWordsPerRank in bytes, and the
// committed value.
type capacityRun struct {
	config, op                    string
	capacity                      int64
	runtime, predicted, committed int64
}

// uniformCSC builds a rows×cols CSC matrix with k entries in every column,
// so any column partition splits its entries exactly n/P-proportionally.
func uniformCSC(rows, cols, k int) *sparse.CSC {
	c := &sparse.CSC{Rows: rows, Cols: cols, ColPtr: make([]int, cols+1), RowIdx: make([]int, 0, cols*k), Val: make([]float64, 0, cols*k)}
	stride := rows / k
	for j := 0; j < cols; j++ {
		for t := 0; t < k; t++ {
			c.RowIdx = append(c.RowIdx, t*stride+j%stride)
			c.Val = append(c.Val, 1)
		}
		c.ColPtr[j+1] = len(c.Val)
	}
	return c
}

// shippedCapacityRuns builds every operator at each shipped configuration
// — zero data of the exact shape and C with nnz/N entries per column — and
// runs one Apply of each.
func shippedCapacityRuns(t *testing.T) []capacityRun {
	t.Helper()
	var runs []capacityRun
	for _, c := range shippedConfigs {
		plat := cluster.NewPlatform(1, c.p)
		a := mat.NewDense(c.m, c.n)
		d := mat.NewDense(c.m, c.l)
		cc := uniformCSC(c.l, c.n, c.nnz/c.n)
		exd, err := dist.NewExDGram(cluster.NewComm(plat), d, cc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			op        string
			gram      dist.Operator
			predicted perf.Estimate
			committed int64
		}{
			{"BatchGram", dist.NewBatchGram(cluster.NewComm(plat), a, c.b, 1), perf.PredictSGD(c.m, c.n, c.b, plat), c.batch},
			{"DenseGram", dist.NewDenseGram(cluster.NewComm(plat), a), perf.PredictDense(c.m, c.n, plat), c.dense},
			{"ExDGram", exd, perf.PredictTransformed(c.m, c.n, c.l, c.nnz, plat), c.exd},
		} {
			runs = append(runs, capacityRun{
				config: c.name, op: r.op, capacity: plat.MemBytesCapacity(),
				runtime:   applyZero(r.gram).MaxResident,
				predicted: int64(r.predicted.MemoryWordsPerRank) * 8,
				committed: r.committed,
			})
		}
	}
	return runs
}

// TestCapacityGolden checks the committed capacity table against the
// machine: at each shipped configuration, every operator's runtime
// worst-rank resident set equals the bytes per rank TestCapacityTable pins
// from the contracts.
func TestCapacityGolden(t *testing.T) {
	for _, r := range shippedCapacityRuns(t) {
		if r.runtime != r.committed {
			t.Errorf("%s at %s: runtime worst-rank resident %d bytes, committed %d", r.op, r.config, r.runtime, r.committed)
		}
	}
}

// TestCapacityGoldenVerdicts pins the capacity table's punchline at
// runtime: every operator at every shipped configuration fits the default
// 2 GiB per rank, while at the 5-billion-coefficient corpus (M=512,
// N=10⁸, L=2048 on 8 ranks) each rank's share of C alone — the smallest
// data share any operator holds — already exceeds it, so every operator
// needs an out-of-core schedule there.
func TestCapacityGoldenVerdicts(t *testing.T) {
	for _, r := range shippedCapacityRuns(t) {
		if r.runtime > r.capacity {
			t.Errorf("%s at %s: runtime worst-rank resident %d bytes exceeds %d", r.op, r.config, r.runtime, r.capacity)
		}
	}
	const n, nnz, p = 100_000_000, 5_000_000_000, 8
	capacity := cluster.NewPlatform(1, p).MemBytesCapacity()
	if share := sparse.ResidentBytes(n/p, nnz/p); share <= capacity {
		t.Errorf("5B-coefficient corpus: a rank's C share of %d bytes fits in %d", share, capacity)
	}
}

// TestPerfMemoryAgreesWithCapacityModel pins perf's Eq. 4 predictor to the
// machine: at each shipped configuration, where the uniform partition is
// exact, every predictor's MemoryWordsPerRank scaled to bytes equals its
// operator's runtime worst-rank resident set. A closed form drifting from
// the operators' actual allocations fails here.
func TestPerfMemoryAgreesWithCapacityModel(t *testing.T) {
	for _, r := range shippedCapacityRuns(t) {
		if r.predicted != r.runtime {
			t.Errorf("%s at %s: perf predicts %d resident bytes per rank, runtime counted %d", r.op, r.config, r.predicted, r.runtime)
		}
	}
}
