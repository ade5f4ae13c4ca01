package faust

import (
	"math"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
	"extdict/internal/sparse"
)

// randomCSC builds a rows×cols factor with about nnz seeded entries.
func randomCSC(r *rng.RNG, rows, cols, nnz int) *sparse.CSC {
	out := &sparse.CSC{Rows: rows, Cols: cols, ColPtr: make([]int, cols+1)}
	perCol := nnz / cols
	if perCol < 1 {
		perCol = 1
	}
	if perCol > rows {
		perCol = rows
	}
	for j := 0; j < cols; j++ {
		for _, i := range r.Subset(rows, perCol) {
			out.RowIdx = append(out.RowIdx, i)
			out.Val = append(out.Val, r.NormFloat64())
		}
		out.ColPtr[j+1] = len(out.Val)
	}
	return out
}

// randomChain builds a consistent factor chain over seeded interior dims.
func randomChain(r *rng.RNG, rows, cols, k int) *FastDict {
	dims := make([]int, k+1)
	dims[0], dims[k] = rows, cols
	for i := 1; i < k; i++ {
		dims[i] = 1 + r.Intn(2*cols)
	}
	fd := &FastDict{Rows: rows, Cols: cols, Factors: make([]*sparse.CSC, k)}
	for i := 0; i < k; i++ {
		fd.Factors[i] = randomCSC(r, dims[i], dims[i+1], dims[i]*dims[i+1]/3+1)
	}
	return fd
}

func randomVec(r *rng.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// TestChainApplyMatchesDense checks chain MulVec/MulVecT against the
// materialized S_1·…·S_k dense product to 1e-12 over randomized shapes.
func TestChainApplyMatchesDense(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+r.Intn(90), 1+r.Intn(60)
		k := 1 + r.Intn(5)
		fd := randomChain(r, rows, cols, k)
		if err := fd.Check(); err != nil {
			t.Fatalf("trial %d: invalid chain: %v", trial, err)
		}
		d := fd.Dense()
		x, xt := randomVec(r, cols), randomVec(r, rows)
		got := fd.MulVec(x, nil, nil, nil)
		want := d.MulVec(x, nil)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: MulVec[%d] = %v, dense %v", trial, i, got[i], want[i])
			}
		}
		gotT := fd.MulVecT(xt, nil, nil, nil)
		wantT := d.MulVecT(xt, nil)
		for i := range wantT {
			if math.Abs(gotT[i]-wantT[i]) > 1e-12*(1+math.Abs(wantT[i])) {
				t.Fatalf("trial %d: MulVecT[%d] = %v, dense %v", trial, i, gotT[i], wantT[i])
			}
		}
	}
}

// TestParChainBitIdenticalToSerial pins the determinism contract: the
// parallel chain kernels equal the serial ones bit for bit at any worker
// count, including sizes above the parallel threshold.
func TestParChainBitIdenticalToSerial(t *testing.T) {
	oldWorkers := mat.Workers
	defer func() { mat.Workers = oldWorkers }()
	r := rng.New(11)
	for _, shape := range [][3]int{{513, 300, 4}, {1024, 400, 3}, {40, 20, 2}} {
		fd := randomChain(r, shape[0], shape[1], shape[2])
		x, xt := randomVec(r, shape[1]), randomVec(r, shape[0])
		mat.Workers = 1
		serial := fd.MulVec(x, nil, nil, nil)
		serialT := fd.MulVecT(xt, nil, nil, nil)
		for _, w := range []int{1, 2, 3, 5, 8, 16} {
			mat.Workers = w
			got := fd.ParMulVec(x, nil, nil, nil)
			gotT := fd.ParMulVecT(xt, nil, nil, nil)
			for i := range serial {
				if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
					t.Fatalf("shape %v workers %d: ParMulVec[%d] = %v, serial %v", shape, w, i, got[i], serial[i])
				}
			}
			for i := range serialT {
				if math.Float64bits(gotT[i]) != math.Float64bits(serialT[i]) {
					t.Fatalf("shape %v workers %d: ParMulVecT[%d] = %v, serial %v", shape, w, i, gotT[i], serialT[i])
				}
			}
		}
	}
}

// TestChainApplyReusesBuffers checks the steady-state contract: with y and
// both intermediates supplied, the kernels write into the provided storage.
func TestChainApplyReusesBuffers(t *testing.T) {
	r := rng.New(3)
	fd := randomChain(r, 50, 30, 4)
	inter := fd.MaxInterDim()
	y, t1, t2 := make([]float64, 50), make([]float64, inter), make([]float64, inter)
	x := randomVec(r, 30)
	if got := fd.MulVec(x, y, t1, t2); &got[0] != &y[0] {
		t.Fatal("MulVec did not write into the provided output buffer")
	}
	yt := make([]float64, 30)
	if got := fd.MulVecT(randomVec(r, 50), yt, t1, t2); &got[0] != &yt[0] {
		t.Fatal("MulVecT did not write into the provided output buffer")
	}
}

// TestFactorizeErrorBoundedAndMonotone pins the PALM property: the
// reconstruction error stays bounded, and growing the per-factor budget
// never hurts on a fixed seeded problem.
func TestFactorizeErrorBoundedAndMonotone(t *testing.T) {
	r := rng.New(5)
	d := mat.NewDense(48, 24)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	prev := math.Inf(1)
	for _, budget := range []int{48, 96, 192, 384, 48 * 24} {
		fd, err := Factorize(d, Options{Factors: 3, Budget: budget, Seed: 9})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		e := fd.RelError(d)
		if e > 1.0+1e-12 {
			t.Fatalf("budget %d: relative error %v above the trivial zero-chain bound", budget, e)
		}
		if e > prev+1e-12 {
			t.Fatalf("budget %d: error %v worse than smaller budget's %v", budget, e, prev)
		}
		prev = e
	}
	if prev > 1e-9 {
		t.Fatalf("full budget should reconstruct exactly, got relative error %v", prev)
	}
}

// TestFactorizeRespectsBudget checks every factor's nnz stays within the
// clamped budget and the chain has the canonical shape.
func TestFactorizeRespectsBudget(t *testing.T) {
	r := rng.New(6)
	d := mat.NewDense(40, 16)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	fd, err := Factorize(d, Options{Factors: 4, Budget: 64, Iters: 10, Restarts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fd.Depth() != 4 || fd.Rows != 40 || fd.Cols != 16 {
		t.Fatalf("unexpected chain shape: %d factors, %dx%d", fd.Depth(), fd.Rows, fd.Cols)
	}
	for i, s := range fd.Factors {
		if s.NNZ() > 64 {
			t.Fatalf("factor %d has %d entries, budget 64", i, s.NNZ())
		}
	}
	if got := fd.NNZ(); got > 4*64 {
		t.Fatalf("chain nnz %d above total budget", got)
	}
}

// TestFactorizeDeterministic pins bit-identical output for a fixed seed.
func TestFactorizeDeterministic(t *testing.T) {
	r := rng.New(8)
	d := mat.NewDense(30, 12)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	opt := Options{Factors: 3, Budget: 60, Iters: 8, Restarts: 2, Seed: 4}
	a, err := Factorize(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Factorize(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Factors {
		av, bv := a.Factors[i].Val, b.Factors[i].Val
		if len(av) != len(bv) {
			t.Fatalf("factor %d nnz differs across runs: %d vs %d", i, len(av), len(bv))
		}
		for j := range av {
			if math.Float64bits(av[j]) != math.Float64bits(bv[j]) {
				t.Fatalf("factor %d entry %d differs across runs", i, j)
			}
		}
	}
}

// TestPlanMatchesFastDictAtReferenceShape pins the documented reference
// chain perf's roofline table evaluates at: M=512, L=128, k=4, budget 1024.
// One apply streams 16·NNZ bytes of factor entries plus
// Σ (rows_i + 2·cols_i + 1) = (512+256+1) + 3·(128+256+1) = 1924 vector and
// column-pointer words; the factors hold 2·NNZ + Σ (cols_i + 1) = 8708
// resident words.
func TestPlanMatchesFastDictAtReferenceShape(t *testing.T) {
	p := NewPlan(512, 128, 4, 1024)
	if got := p.NNZ(); got != 4096 {
		t.Fatalf("reference NNZ = %d, want 4096", got)
	}
	if flops, bytes := p.MulVecCost(); flops != 2*4096 || bytes != 16*4096+8*1924 {
		t.Fatalf("reference MulVecCost = (%d, %d), want (%d, %d)", flops, bytes, 2*4096, 16*4096+8*1924)
	}
	if got := p.ResidentBytes(); got != 8*8708 {
		t.Fatalf("reference ResidentBytes = %d, want %d", got, 8*8708)
	}
	if got := p.InterDim(); got != 128 {
		t.Fatalf("reference InterDim = %d, want 128", got)
	}
	if got := p.FactorizeFlops(0, 0); got <= 0 {
		t.Fatalf("FactorizeFlops = %d, want positive", got)
	}
}

// TestPlanBoundsFittedChain checks the plan's accessors are upper bounds on
// a fitted chain and that a fitted chain's accessors agree with its factors.
func TestPlanBoundsFittedChain(t *testing.T) {
	r := rng.New(12)
	d := mat.NewDense(32, 16)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	p := NewPlan(32, 16, 3, 80)
	fd, err := Factorize(d, Options{Factors: 3, Budget: 80, Iters: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, pb := p.MulVecCost()
	ff, fb := fd.MulVecCost()
	if fd.NNZ() > p.NNZ() || ff > pf || fb > pb || fd.ResidentBytes() > p.ResidentBytes() {
		t.Fatalf("plan (nnz %d, step %d flops %d bytes, resident %d) does not bound fitted chain (nnz %d, step %d flops %d bytes, resident %d)",
			p.NNZ(), pf, pb, p.ResidentBytes(), fd.NNZ(), ff, fb, fd.ResidentBytes())
	}
	if ff != 2*fd.NNZ() {
		t.Fatalf("chain step %d flops, want 2·NNZ = %d", ff, 2*fd.NNZ())
	}
	if fd.MaxInterDim() != p.InterDim() {
		t.Fatalf("InterDim %d, plan %d", fd.MaxInterDim(), p.InterDim())
	}
}

// TestCheckRejectsMalformedChains covers the validation paths.
func TestCheckRejectsMalformedChains(t *testing.T) {
	r := rng.New(13)
	good := randomChain(r, 10, 6, 3)
	if err := good.Check(); err != nil {
		t.Fatal(err)
	}
	empty := &FastDict{Rows: 10, Cols: 6}
	if empty.Check() == nil {
		t.Fatal("empty chain accepted")
	}
	wrongOuter := &FastDict{Rows: 11, Cols: 6, Factors: good.Factors}
	if wrongOuter.Check() == nil {
		t.Fatal("wrong outer rows accepted")
	}
	mismatch := randomChain(r, 10, 6, 3)
	mismatch.Factors[1] = randomCSC(r, mismatch.Factors[1].Rows+1, mismatch.Factors[1].Cols, 5)
	if mismatch.Check() == nil {
		t.Fatal("inner dimension mismatch accepted")
	}
}
