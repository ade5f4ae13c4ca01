package dist

import (
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/rng"
)

// Analytic per-rank resident sets of the storage contracts in DESIGN.md
// ("Cost contracts"). Unlike byte traffic these are high-water marks per
// rank, so the closed forms take the rank's own window and nnz share — the
// partition matters, and rank 0 carries the Case 1 dictionary.

// denseGramResident: the rank's owned M×w column window plus its M-length
// partial product buffer.
func denseGramResident(m, w int64) int64 {
	return 8 * (m*w + m)
}

// exdGramResident: the rank's CSC slice (values + row indices + column
// pointers), its two L-length workspace vectors and the M-length partial
// product, plus the 8·M·L-byte dictionary — on rank 0 only in Case 1, on
// every rank in Case 2.
func exdGramResident(m, w, l, nnz int64, caseTwo bool, rank int) int64 {
	r := 16*nnz + 8*(w+1) + 16*l + 8*m
	if caseTwo || rank == 0 {
		r += 8 * m * l
	}
	return r
}

// batchGramResident: every rank holds its own full M×N data matrix plus the
// batch-length partial product buffer.
func batchGramResident(m, n, b int64) int64 {
	return 8 * (m*n + b)
}

// TestOperatorResidentMatchesModel draws randomized shapes and checks that
// the runtime PeakResidentPerRank of a real Apply equals the analytic
// per-rank polynomial exactly for every operator and every rank. The
// closed forms are written out here, independently of the storage
// contracts the constructors size the claims from.
func TestOperatorResidentMatchesModel(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 5; trial++ {
		m := 12 + int(r.Uint64()%24)     // 12..35
		n := m + 20 + int(r.Uint64()%80) // keeps the fit overdetermined
		p := 1 + int(r.Uint64()%5)
		plat := cluster.NewPlatform(1, p)
		ranges := WeightedBlockRanges(n, plat.RankSpeeds())
		a := testData(t, m, n, uint64(300+trial))
		x := randVec(r, n)
		y := make([]float64, n)

		g := NewDenseGram(cluster.NewComm(plat), a)
		st := applyWatched(t, g, x, y)
		for i := 0; i < p; i++ {
			w := int64(ranges[i][1] - ranges[i][0])
			if want := denseGramResident(int64(m), w); st.PeakResidentPerRank[i] != want {
				t.Fatalf("trial %d DenseGram m=%d n=%d p=%d rank %d: resident %d, want %d",
					trial, m, n, p, i, st.PeakResidentPerRank[i], want)
			}
		}

		for _, l := range []int{m - 4, m + 6} { // Case 1 (L≤M) and Case 2 (L>M)
			tr := fitExD(t, a, l, 0.05)
			eg := exdGram(t, cluster.NewComm(plat), tr)
			st = applyWatched(t, eg, x, y)
			for i := 0; i < p; i++ {
				lo, hi := ranges[i][0], ranges[i][1]
				nnz := int64(tr.C.ColSliceRange(lo, hi).NNZ())
				want := exdGramResident(int64(m), int64(hi-lo), int64(l), nnz, eg.CaseTwo(), i)
				if st.PeakResidentPerRank[i] != want {
					t.Fatalf("trial %d ExDGram m=%d n=%d l=%d p=%d rank %d: resident %d, want %d",
						trial, m, n, l, p, i, st.PeakResidentPerRank[i], want)
				}
			}
		}

		b := 1 + int(r.Uint64()%uint64(m))
		bg := NewBatchGram(cluster.NewComm(plat), a, b, uint64(trial+7))
		st = applyWatched(t, bg, x, y)
		for i := 0; i < p; i++ {
			if want := batchGramResident(int64(m), int64(n), int64(bg.B)); st.PeakResidentPerRank[i] != want {
				t.Fatalf("trial %d BatchGram b=%d n=%d p=%d rank %d: resident %d, want %d",
					trial, bg.B, n, p, i, st.PeakResidentPerRank[i], want)
			}
		}
	}
}

// TestOperatorResidentMonotone checks the analytic resident polynomials are
// strictly monotone in every data dimension: holding more rows, a wider
// window, more atoms, or more stored coefficients can only need more RAM.
// Random base points and random positive bumps, one dimension at a time.
func TestOperatorResidentMonotone(t *testing.T) {
	r := rng.New(43)
	dim := func() int64 { return 1 + int64(r.Uint64()%1000) }
	bump := func(v int64) int64 { return v + 1 + int64(r.Uint64()%100) }
	for trial := 0; trial < 100; trial++ {
		m, w, n, l, nnz, b := dim(), dim(), dim(), dim(), dim(), dim()
		if got, base := denseGramResident(bump(m), w), denseGramResident(m, w); got <= base {
			t.Fatalf("denseGramResident not monotone in m: %d -> %d", base, got)
		}
		if got, base := denseGramResident(m, bump(w)), denseGramResident(m, w); got <= base {
			t.Fatalf("denseGramResident not monotone in w: %d -> %d", base, got)
		}
		for _, caseTwo := range []bool{false, true} {
			base := exdGramResident(m, w, l, nnz, caseTwo, 0)
			for arg, got := range map[string]int64{
				"m":   exdGramResident(bump(m), w, l, nnz, caseTwo, 0),
				"w":   exdGramResident(m, bump(w), l, nnz, caseTwo, 0),
				"l":   exdGramResident(m, w, bump(l), nnz, caseTwo, 0),
				"nnz": exdGramResident(m, w, l, bump(nnz), caseTwo, 0),
			} {
				if got <= base {
					t.Fatalf("exdGramResident(caseTwo=%v) not monotone in %s: %d -> %d", caseTwo, arg, base, got)
				}
			}
		}
		if got, base := batchGramResident(bump(m), n, b), batchGramResident(m, n, b); got <= base {
			t.Fatalf("batchGramResident not monotone in m: %d -> %d", base, got)
		}
		if got, base := batchGramResident(m, bump(n), b), batchGramResident(m, n, b); got <= base {
			t.Fatalf("batchGramResident not monotone in n: %d -> %d", base, got)
		}
		if got, base := batchGramResident(m, n, bump(b)), batchGramResident(m, n, b); got <= base {
			t.Fatalf("batchGramResident not monotone in b: %d -> %d", base, got)
		}
	}
}
