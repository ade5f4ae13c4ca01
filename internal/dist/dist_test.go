package dist

import (
	"math"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/cluster/clustertest"
	"extdict/internal/dataset"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// applyWatched runs op.Apply under the shared cluster watchdog so a
// collective deadlock in an operator fails the test with a goroutine dump
// instead of hanging CI.
func applyWatched(t testing.TB, op Operator, x, y []float64) cluster.Stats {
	t.Helper()
	var st cluster.Stats
	clustertest.Watchdog(t, func() { st = op.Apply(x, y) })
	return st
}

func testData(t testing.TB, m, n int, seed uint64) *mat.Dense {
	t.Helper()
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: m, N: n, Ks: []int{3, 4}}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return u.A
}

func randVec(r *rng.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestBlockRangeCoversAll(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100} {
		for _, p := range []int{1, 3, 8, 64} {
			prev := 0
			for i := 0; i < p; i++ {
				lo, hi := BlockRange(n, p, i)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d p=%d i=%d: [%d,%d) after %d", n, p, i, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d p=%d: blocks end at %d", n, p, prev)
			}
		}
	}
}

func TestDenseGramMatchesSerial(t *testing.T) {
	a := testData(t, 24, 90, 1)
	r := rng.New(2)
	x := randVec(r, 90)
	want := a.MulVecT(a.MulVec(x, nil), nil) // AᵀA·x serially

	for _, plat := range cluster.PaperPlatforms() {
		comm := cluster.NewComm(plat)
		g := NewDenseGram(comm, a)
		y := make([]float64, 90)
		st := applyWatched(t, g, x, y)
		for i := range want {
			if math.Abs(y[i]-want[i]) > 1e-9 {
				t.Fatalf("platform %s: mismatch at %d: %v vs %v",
					plat.Topology, i, y[i], want[i])
			}
		}
		if plat.Topology.P() > 1 && st.PathWords != int64(2*a.Rows) {
			t.Fatalf("platform %s: path words %d, want %d",
				plat.Topology, st.PathWords, 2*a.Rows)
		}
	}
}

func fitExD(t testing.TB, a *mat.Dense, l int, eps float64) *exd.Transform {
	t.Helper()
	tr, err := exd.Fit(a, exd.Params{L: l, Epsilon: eps, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// exdGram builds the Algorithm 2 operator over a fitted transform.
func exdGram(t testing.TB, comm *cluster.Comm, tr *exd.Transform) *ExDGram {
	t.Helper()
	g, err := NewExDGram(comm, tr.D, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExDGramMatchesSerialBothCases(t *testing.T) {
	// The dictionary is held dense: D is an M×L matrix.
	t.Run("dense", func(t *testing.T) {
		a := testData(t, 30, 120, 3)
		x := randVec(rng.New(4), 120)
		for _, l := range []int{20, 80} { // Case 1 (L≤M) and Case 2 (L>M)
			tr := fitExD(t, a, l, 0.05)
			for _, plat := range []cluster.Platform{cluster.NewPlatform(1, 1), cluster.NewPlatform(2, 4)} {
				g := exdGram(t, cluster.NewComm(plat), tr)
				if g.CaseTwo() != (l > 30) {
					t.Fatalf("L=%d M=30: CaseTwo=%v", l, g.CaseTwo())
				}
				if g.Dim() != 120 || g.Name() != "ExD" {
					t.Fatal("metadata wrong")
				}
				dc := mat.Mul(tr.D, tr.C.Dense())
				want := dc.MulVecT(dc.MulVec(x, nil), nil) // (DC)ᵀDC·x serially
				y := make([]float64, 120)
				applyWatched(t, g, x, y)
				for i := range want {
					if math.Abs(y[i]-want[i]) > 1e-8 {
						t.Fatalf("L=%d %s: mismatch at %d: %v vs %v",
							l, plat.Topology, i, y[i], want[i])
					}
				}
			}
		}
	})
}

func TestExDGramCommunicationOptimal(t *testing.T) {
	// §VI-B: critical-path words per iteration must be 2·min(M, L).
	// The dictionary is held dense: D is an M×L matrix.
	t.Run("dense", func(t *testing.T) {
		a := testData(t, 30, 120, 5)
		x := randVec(rng.New(6), 120)
		y := make([]float64, 120)
		plat := cluster.NewPlatform(2, 4)
		g1 := exdGram(t, cluster.NewComm(plat), fitExD(t, a, 16, 0.05)) // L=16 < M=30
		if st := applyWatched(t, g1, x, y); st.PathWords != 2*16 {
			t.Fatalf("Case 1 path words %d, want %d", st.PathWords, 2*16)
		}
		g2 := exdGram(t, cluster.NewComm(plat), fitExD(t, a, 100, 0.05)) // L=100 > M=30
		if st := applyWatched(t, g2, x, y); st.PathWords != 2*30 {
			t.Fatalf("Case 2 path words %d, want %d", st.PathWords, 2*30)
		}
	})
}

func TestExDGramRejectsShapeMismatch(t *testing.T) {
	a := testData(t, 20, 60, 7)
	tr := fitExD(t, a, 15, 0.1)
	d := mat.NewDense(20, 14) // wrong column count vs C rows
	if _, err := NewExDGram(cluster.NewComm(cluster.NewPlatform(1, 2)), d, tr.C); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestExDGramApproximatesDenseGram(t *testing.T) {
	// (DC)ᵀDC·x ≈ AᵀA·x within the transformation error budget.
	a := testData(t, 32, 150, 8)
	x := randVec(rng.New(9), 150)
	plat := cluster.NewPlatform(1, 4)

	dense := NewDenseGram(cluster.NewComm(plat), a)
	yTrue := make([]float64, 150)
	applyWatched(t, dense, x, yTrue)

	tr := fitExD(t, a, 90, 0.01)
	g, _ := NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
	yApprox := make([]float64, 150)
	applyWatched(t, g, x, yApprox)

	diff := make([]float64, 150)
	mat.SubVec(diff, yTrue, yApprox)
	rel := mat.Norm2(diff) / mat.Norm2(yTrue)
	if rel > 0.1 {
		t.Fatalf("relative operator error %v too large for eps=0.01", rel)
	}
}

func TestExDGramFlopAccounting(t *testing.T) {
	// The dictionary is held dense: D is an M×L matrix.
	t.Run("dense", func(t *testing.T) {
		a := testData(t, 30, 80, 10)
		tr := fitExD(t, a, 20, 0.05)
		plat := cluster.NewPlatform(1, 4)
		x := randVec(rng.New(11), 80)
		y := make([]float64, 80)
		st := applyWatched(t, exdGram(t, cluster.NewComm(plat), tr), x, y)
		// Case 1 totals: 4·nnz(C) for the sparse products + both dictionary
		// steps on rank 0, 2·M·L each.
		if want := 4*int64(tr.C.NNZ()) + 4*30*20; st.TotalFlops != want {
			t.Fatalf("flops %d, want %d", st.TotalFlops, want)
		}
	})
}

func TestBatchGramUnbiasedAndCheap(t *testing.T) {
	a := testData(t, 40, 100, 12)
	x := randVec(rng.New(13), 100)
	want := a.MulVecT(a.MulVec(x, nil), nil)

	plat := cluster.NewPlatform(1, 4)
	g := NewBatchGram(cluster.NewComm(plat), a, 8, 99)
	if g.Dim() != 100 || g.Name() != "SGD" {
		t.Fatal("metadata wrong")
	}

	// Average many stochastic applications: must approach AᵀA·x.
	const trials = 400
	avg := make([]float64, 100)
	y := make([]float64, 100)
	var st cluster.Stats
	for i := 0; i < trials; i++ {
		s := applyWatched(t, g, x, y)
		if i == 0 {
			st = s
		}
		mat.Axpy(1.0/trials, y, avg)
	}
	diff := make([]float64, 100)
	mat.SubVec(diff, avg, want)
	rel := mat.Norm2(diff) / mat.Norm2(want)
	if rel > 0.15 {
		t.Fatalf("stochastic mean off by %v", rel)
	}
	// Communication per iteration is 2·B words (reduce + broadcast).
	if st.PathWords != 2*8 {
		t.Fatalf("SGD path words %d, want %d", st.PathWords, 16)
	}
}

func TestBatchGramDefaultBatch(t *testing.T) {
	a := testData(t, 100, 50, 14)
	g := NewBatchGram(cluster.NewComm(cluster.NewPlatform(1, 1)), a, 0, 1)
	if g.B != 64 {
		t.Fatalf("default batch %d, want 64", g.B)
	}
	small := NewBatchGram(cluster.NewComm(cluster.NewPlatform(1, 1)), testData(t, 10, 20, 15), 0, 1)
	if small.B != 10 {
		t.Fatalf("clamped batch %d, want 10", small.B)
	}
}

func TestOperatorsDeterministic(t *testing.T) {
	// Separately built operators must agree bit for bit, and the parallel
	// dictionary kernels are bit-identical to serial, so the product must
	// not depend on the pool width either.
	// The dictionary is held dense: D is an M×L matrix.
	t.Run("dense", func(t *testing.T) {
		a := testData(t, 24, 70, 16)
		tr := fitExD(t, a, 40, 0.05)
		x := randVec(rng.New(17), 70)
		plat := cluster.NewPlatform(2, 2)

		saved := mat.Workers
		defer func() { mat.Workers = saved }()
		var ref []float64
		for _, w := range []int{1, 2, 7} {
			mat.Workers = w
			y := make([]float64, 70)
			applyWatched(t, exdGram(t, cluster.NewComm(plat), tr), x, y)
			if ref == nil {
				ref = y
				continue
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("workers=%d: y[%d] differs from serial bit pattern", w, i)
				}
			}
		}
	})
}

func BenchmarkExDGramApply(b *testing.B) {
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: 96, N: 1024, Ks: []int{4, 5, 6}}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := exd.Fit(u.A, exd.Params{L: 256, Epsilon: 0.1, Seed: 1, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewExDGram(cluster.NewComm(cluster.NewPlatform(2, 4)), tr.D, tr.C)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(rng.New(2), 1024)
	y := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Apply(x, y)
	}
}
