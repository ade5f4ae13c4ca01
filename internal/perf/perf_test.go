package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/dist"
	"extdict/internal/exd"
	"extdict/internal/rng"
)

func TestObjectiveStrings(t *testing.T) {
	if Runtime.String() != "runtime" || Energy.String() != "energy" || Memory.String() != "memory" {
		t.Fatal("objective names wrong")
	}
	if Objective(99).String() != "unknown" {
		t.Fatal("unknown objective not handled")
	}
}

func TestCostSelectsObjective(t *testing.T) {
	e := Estimate{Time: 1, EnergyJ: 2, MemoryWordsPerRank: 3}
	if e.Cost(Runtime) != 1 || e.Cost(Energy) != 2 || e.Cost(Memory) != 3 {
		t.Fatal("Cost dispatch wrong")
	}
}

func TestPredictTransformedCommunicationBound(t *testing.T) {
	// Communicated words stay at the schedule's 2·min(M, L) in both cases.
	// The dictionary is held dense: D is an M×L matrix.
	t.Run("dense", func(t *testing.T) {
		plat := cluster.NewPlatform(2, 4)
		if e := PredictTransformed(100, 1000, 40, 5000, plat); e.PathWords != 80 { // L < M
			t.Fatalf("Case 1 words %v, want 80", e.PathWords)
		}
		if e := PredictTransformed(100, 1000, 300, 5000, plat); e.PathWords != 200 { // L > M
			t.Fatalf("Case 2 words %v, want 200", e.PathWords)
		}
	})
}

func TestPredictTransformedMatchesSimulator(t *testing.T) {
	// Fig. 8's claim: the closed-form Eq. 2 estimate tracks the simulated
	// bulk-synchronous cost. Words and total flops agree exactly; time to
	// within the load-imbalance slack of the nnz partition.
	// The dictionary is held dense: D is an M×L matrix.
	t.Run("dense", func(t *testing.T) {
		u, err := dataset.GenerateUnion(
			dataset.UnionParams{M: 48, N: 400, Ks: []int{4, 5}}, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []int{30, 120} { // Case 1 and Case 2
			tr, err := exd.Fit(u.A, exd.Params{L: l, Epsilon: 0.05, Seed: 2, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, plat := range cluster.PaperPlatforms()[:3] {
				g, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, 400)
				for i := range x {
					x[i] = 1
				}
				y := make([]float64, 400)
				st := g.Apply(x, y)
				pred := PredictTransformed(48, 400, l, tr.C.NNZ(), plat)

				if pred.PathWords != float64(st.PathWords) {
					t.Fatalf("L=%d %s: predicted words %v, simulated %d",
						l, plat.Topology, pred.PathWords, st.PathWords)
				}
				if math.Abs(pred.FlopsTotal-float64(st.TotalFlops))/pred.FlopsTotal > 1e-9 {
					t.Fatalf("L=%d %s: predicted flops %v, simulated %d",
						l, plat.Topology, pred.FlopsTotal, st.TotalFlops)
				}
				rel := math.Abs(pred.Time-st.ModeledTime) / st.ModeledTime
				if rel > 0.25 { // nnz partition imbalance is the only slack
					t.Fatalf("L=%d %s: predicted %v, simulated %v (rel %v)",
						l, plat.Topology, pred.Time, st.ModeledTime, rel)
				}
			}
		}
	})
}

func TestPredictDenseMatchesSimulator(t *testing.T) {
	u, err := dataset.GenerateUnion(
		dataset.UnionParams{M: 40, N: 320, Ks: []int{4}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	plat := cluster.NewPlatform(2, 4)
	comm := cluster.NewComm(plat)
	g := dist.NewDenseGram(comm, u.A)
	x := make([]float64, 320)
	y := make([]float64, 320)
	st := g.Apply(x, y)
	pred := PredictDense(40, 320, plat)
	if pred.PathWords != float64(st.PathWords) {
		t.Fatalf("words %v vs %d", pred.PathWords, st.PathWords)
	}
	if pred.FlopsTotal != float64(st.TotalFlops) {
		t.Fatalf("flops %v vs %d", pred.FlopsTotal, st.TotalFlops)
	}
	rel := math.Abs(pred.Time-st.ModeledTime) / st.ModeledTime
	if rel > 0.05 {
		t.Fatalf("time %v vs %v", pred.Time, st.ModeledTime)
	}
}

func TestTransformedBeatsDenseWhenSparse(t *testing.T) {
	// The headline trade: with nnz ≪ M·N, the transformed iteration must
	// be predicted far cheaper than the dense one.
	plat := cluster.NewPlatform(8, 8)
	m, n := 200, 100000
	dense := PredictDense(m, n, plat)
	exdE := PredictTransformed(m, n, 400, 5*n, plat) // α = 5
	if exdE.Time >= dense.Time {
		t.Fatalf("transformed %v not cheaper than dense %v", exdE.Time, dense.Time)
	}
	if exdE.MemoryWordsPerRank >= dense.MemoryWordsPerRank {
		t.Fatal("transformed memory not lower")
	}
}

func TestCommunicationComputeTradeoff(t *testing.T) {
	// Eq. 2's L trade-off: growing L raises communication (up to M) and
	// dictionary flops; the model must be monotone in L for fixed nnz.
	plat := cluster.NewPlatform(8, 8)
	prev := 0.0
	for _, l := range []int{50, 100, 200, 400} {
		e := PredictTransformed(300, 50000, l, 200000, plat)
		if e.Time <= prev {
			t.Fatalf("cost not increasing in L at L=%d", l)
		}
		prev = e.Time
	}
}

func TestPredictSGD(t *testing.T) {
	plat := cluster.NewPlatform(2, 4)
	e := PredictSGD(100, 1000, 64, plat)
	if e.PathWords != 128 {
		t.Fatalf("SGD words %v", e.PathWords)
	}
	if e.FlopsTotal != 4*64*1000 {
		t.Fatalf("SGD flops %v", e.FlopsTotal)
	}
	// SGD per-iteration must be cheaper than a dense full iteration.
	if d := PredictDense(5000, 1000, plat); e.Time >= d.Time {
		t.Fatal("SGD iteration not cheaper than dense")
	}
}

// TestMemoryEquationBaselines pins the corrected per-rank resident-set
// formulas of the baseline predictors: the dense iteration holds its M×N/P
// column block plus the M-length partial product, and SGD holds the full
// M×N data matrix on every rank plus the batch buffer, in words
// (TestCapacityTable pins the byte-level agreement with the contracts).
func TestMemoryEquationBaselines(t *testing.T) {
	plat := cluster.NewPlatform(2, 4) // P = 8
	if e, want := PredictDense(100, 6400, plat), 100.0*6400/8+100; e.MemoryWordsPerRank != want {
		t.Fatalf("dense memory %v, want %v", e.MemoryWordsPerRank, want)
	}
	if e, want := PredictSGD(100, 6400, 64, plat), 100.0*6400+64; e.MemoryWordsPerRank != want {
		t.Fatalf("sgd memory %v, want %v", e.MemoryWordsPerRank, want)
	}
}

func TestMemoryEquation(t *testing.T) {
	plat := cluster.NewPlatform(8, 8) // P = 64
	e := PredictTransformed(100, 6400, 50, 32000, plat)
	want := 100.0*50 + 2*32000.0/64 + 6400.0/64 + 100 + 2*50 + 1
	if e.MemoryWordsPerRank != want {
		t.Fatalf("memory %v, want %v", e.MemoryWordsPerRank, want)
	}
}

func TestSingleCoreNoCommTerm(t *testing.T) {
	plat := cluster.NewPlatform(1, 1)
	e := PredictTransformed(100, 1000, 50, 3000, plat)
	// With P=1 the simulator still executes the collectives (they are
	// no-ops data-wise) but the word term stays; what must vanish is the
	// parallel speedup. Check flop terms dominate at this scale.
	if e.FlopsCritical != 4*3000+4*100*50 {
		t.Fatalf("critical flops %v", e.FlopsCritical)
	}
}

// estimateDigest hashes the bit pattern of every Estimate field of the
// given estimates, in field order.
func estimateDigest(es []Estimate) string {
	h := sha256.New()
	for _, e := range es {
		ev := reflect.ValueOf(e)
		for i := 0; i < ev.NumField(); i++ {
			fmt.Fprintf(h, "%s=%x;", ev.Type().Field(i).Name, math.Float64bits(ev.Field(i).Float()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPredictorBitsPinned pins math.Float64bits of every Estimate field
// PredictTransformed returns, over a shape grid spanning both cases, one and
// many ranks, and single- and multi-node platforms. A refactor of the
// Eq. 2–4 formulas must reproduce every bit.
func TestPredictorBitsPinned(t *testing.T) {
	var es []Estimate
	for _, plat := range cluster.PaperPlatforms() {
		for _, m := range []int{16, 100, 512} {
			for _, l := range []int{8, 128, 2048} {
				for _, nnz := range []int{5000, 5000000} {
					const n = 100000
					es = append(es, PredictTransformed(m, n, l, nnz, plat))
				}
			}
		}
	}
	const want = "b6d082514ce597b44c9d688a15d21e48b52d8bbc0eb6af142983e5bd5b50f5a6"
	if got := estimateDigest(es); got != want {
		t.Errorf("predictor bits drifted over %d shapes:\n  got  %s\n  want %s", len(es), got, want)
	}
}
