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
// pointers), its two L-length workspace vectors, the M-length partial
// product and two buf-length hop buffers, plus the dictionary's dict
// resident bytes (8·M·L for a dense D) — on rank 0 only in Case 1, on
// every rank in Case 2.
func exdGramResident(m, w, l, nnz, dict, buf int64, caseTwo bool, rank int) int64 {
	r := 16*nnz + 8*(w+1) + 16*l + 8*m + 16*buf
	if caseTwo || rank == 0 {
		r += dict
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
			for _, h := range hops {
				eg, _, c := h.gram(t, cluster.NewComm(plat), tr)
				st = applyWatched(t, eg, x, y)
				for i := 0; i < p; i++ {
					lo, hi := ranges[i][0], ranges[i][1]
					nnz := int64(tr.C.ColSliceRange(lo, hi).NNZ())
					want := exdGramResident(int64(m), int64(hi-lo), int64(l), nnz, c.resident, c.buf, eg.CaseTwo(), i)
					if st.PeakResidentPerRank[i] != want {
						t.Fatalf("trial %d ExDGram/%s m=%d n=%d l=%d p=%d rank %d: resident %d, want %d",
							trial, h.name, m, n, l, p, i, st.PeakResidentPerRank[i], want)
					}
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

// TestFastGramResidentAccounting pins the chain hop's per-rank resident set
// on one fixed Case 1 shape against the closed form written out term by
// term: the rank's C slice, two L-length workspaces, the M-length partial
// product, two MaxInterDim hop buffers, and the chain payload on rank 0.
func TestFastGramResidentAccounting(t *testing.T) {
	a := testData(t, 30, 80, 12)
	tr := fitExD(t, a, 20, 0.05)
	fd := factorizeD(t, tr, 3, 120)
	const p = 4
	plat := cluster.NewPlatform(1, p)
	g, err := NewFastGram(cluster.NewComm(plat), fd, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng.New(13), 80)
	y := make([]float64, 80)
	st := applyWatched(t, g, x, y)
	if len(st.PeakResidentPerRank) != p {
		t.Fatalf("runtime reported %d resident ranks, want %d", len(st.PeakResidentPerRank), p)
	}
	ranges := WeightedBlockRanges(80, plat.RankSpeeds())
	for i := 0; i < p; i++ {
		blk := tr.C.ColSliceRange(ranges[i][0], ranges[i][1])
		want := 16*int64(blk.NNZ()) + 8*int64(ranges[i][1]-ranges[i][0]+1) +
			16*20 + 8*30 + 16*int64(fd.MaxInterDim())
		if i == 0 {
			for _, s := range fd.Factors {
				want += 16*int64(s.NNZ()) + 8*int64(s.Cols+1)
			}
		}
		if st.PeakResidentPerRank[i] != want {
			t.Fatalf("rank %d resident %d bytes, want %d", i, st.PeakResidentPerRank[i], want)
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
			// The dense dictionary: 8·M·L resident bytes, no hop buffers.
			dense := func(m, w, l, nnz int64) int64 {
				return exdGramResident(m, w, l, nnz, 8*m*l, 0, caseTwo, 0)
			}
			base := dense(m, w, l, nnz)
			for arg, got := range map[string]int64{
				"m":   dense(bump(m), w, l, nnz),
				"w":   dense(m, bump(w), l, nnz),
				"l":   dense(m, w, bump(l), nnz),
				"nnz": dense(m, w, l, bump(nnz)),
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
