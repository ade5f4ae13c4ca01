package dist

import (
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/rng"
)

// Analytic totals of the byte contracts in DESIGN.md ("Cost contracts"),
// summed over one full Apply. The per-rank column windows partition N and
// the per-rank CSC blocks partition nnz(C), so the totals depend only on
// the global shape, never on the partition.

// denseGramBytes: per rank two dense passes over the M×n_i block plus both
// vector ends, summed over the partition of N.
func denseGramBytes(m, n, p int64) int64 {
	return 16 * (m*n + m*p + n)
}

// exdCase1Bytes: two CSC passes per rank (payload + indices + pointers +
// vector ends) plus the dictionary round trip — two dense steps of
// 8·(M·L + M + L) bytes each — on rank 0 only.
func exdCase1Bytes(m, n, l, p, nnz int64) int64 {
	return 32*nnz + 32*n + 16*l*p + 16*p + 16*(m*l+m+l)
}

// exdCase2Bytes: same sparse traffic, but every rank runs the round trip on
// its own replica of D.
func exdCase2Bytes(m, n, l, p, nnz int64) int64 {
	return 32*nnz + 32*n + 16*l*p + 16*p + 16*p*(m*l+m+l)
}

// batchGramBytes: per rank the B per-row dots over the window, then the
// zero + B axpy scatter, summed over the partition of N.
func batchGramBytes(b, n int64) int64 {
	return 40*b*n + 8*n
}

// TestOperatorBytesMatchModel draws randomized shapes and checks that the
// runtime TotalBytes and TotalFlops of a real Apply equal the analytic
// polynomials exactly for every operator. BatchGram's flops include the B
// batch-scaling multiplies each rank performs: P·B + 4·B·N.
func TestOperatorBytesMatchModel(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 5; trial++ {
		m := 12 + int(r.Uint64()%24)     // 12..35
		n := m + 20 + int(r.Uint64()%80) // keeps the fit overdetermined
		p := 1 + int(r.Uint64()%5)
		plat := cluster.NewPlatform(1, p)
		a := testData(t, m, n, uint64(100+trial))
		x := randVec(r, n)
		y := make([]float64, n)

		g := NewDenseGram(cluster.NewComm(plat), a)
		st := applyWatched(t, g, x, y)
		if want := denseGramBytes(int64(m), int64(n), int64(p)); st.TotalBytes != want {
			t.Fatalf("trial %d DenseGram m=%d n=%d p=%d: bytes %d, want %d",
				trial, m, n, p, st.TotalBytes, want)
		}
		if want := 4 * int64(m) * int64(n); st.TotalFlops != want {
			t.Fatalf("trial %d DenseGram m=%d n=%d p=%d: flops %d, want %d",
				trial, m, n, p, st.TotalFlops, want)
		}

		for _, l := range []int{m - 4, m + 6} { // Case 1 (L≤M) and Case 2 (L>M)
			tr := fitExD(t, a, l, 0.05)
			nnz := int64(tr.C.NNZ())
			eg := exdGram(t, cluster.NewComm(plat), tr)
			// Two sparse products of 2·nnz flops, and two dictionary steps
			// of 2·M·L flops on rank 0 (Case 1) or on every rank (Case 2).
			want := exdCase1Bytes(int64(m), int64(n), int64(l), int64(p), nnz)
			wantFlops := 4*nnz + 4*int64(m)*int64(l)
			if eg.CaseTwo() {
				want = exdCase2Bytes(int64(m), int64(n), int64(l), int64(p), nnz)
				wantFlops = 4*nnz + 4*int64(p)*int64(m)*int64(l)
			}
			st = applyWatched(t, eg, x, y)
			if st.TotalBytes != want {
				t.Fatalf("trial %d ExDGram m=%d n=%d l=%d p=%d nnz=%d: bytes %d, want %d",
					trial, m, n, l, p, nnz, st.TotalBytes, want)
			}
			if st.TotalFlops != wantFlops {
				t.Fatalf("trial %d ExDGram m=%d n=%d l=%d p=%d nnz=%d: flops %d, want %d",
					trial, m, n, l, p, nnz, st.TotalFlops, wantFlops)
			}
		}

		b := 1 + int(r.Uint64()%uint64(m))
		bg := NewBatchGram(cluster.NewComm(plat), a, b, uint64(trial+1))
		st = applyWatched(t, bg, x, y)
		if want := batchGramBytes(int64(bg.B), int64(n)); st.TotalBytes != want {
			t.Fatalf("trial %d BatchGram b=%d n=%d p=%d: bytes %d, want %d",
				trial, bg.B, n, p, st.TotalBytes, want)
		}
		if want := int64(p)*int64(bg.B) + 4*int64(bg.B)*int64(n); st.TotalFlops != want {
			t.Fatalf("trial %d BatchGram b=%d n=%d p=%d: flops %d, want %d",
				trial, bg.B, n, p, st.TotalFlops, want)
		}
	}
}

// TestOperatorBytesMonotone checks the analytic polynomials are strictly
// monotone in every dimension: streaming more rows, columns, atoms, or
// stored coefficients can only move more bytes. Random base points and
// random positive bumps, one dimension at a time.
func TestOperatorBytesMonotone(t *testing.T) {
	r := rng.New(29)
	dim := func() int64 { return 1 + int64(r.Uint64()%1000) }
	bump := func(v int64) int64 { return v + 1 + int64(r.Uint64()%100) }
	for trial := 0; trial < 100; trial++ {
		m, n, l, p, nnz, b := dim(), dim(), dim(), dim(), dim(), dim()
		if got, base := denseGramBytes(bump(m), n, p), denseGramBytes(m, n, p); got <= base {
			t.Fatalf("denseGramBytes not monotone in m: %d -> %d", base, got)
		}
		if got, base := denseGramBytes(m, bump(n), p), denseGramBytes(m, n, p); got <= base {
			t.Fatalf("denseGramBytes not monotone in n: %d -> %d", base, got)
		}
		for name, f := range map[string]func(m, n, l, p, nnz int64) int64{
			"exdCase1Bytes": exdCase1Bytes,
			"exdCase2Bytes": exdCase2Bytes,
		} {
			base := f(m, n, l, p, nnz)
			for arg, got := range map[string]int64{
				"m":   f(bump(m), n, l, p, nnz),
				"n":   f(m, bump(n), l, p, nnz),
				"l":   f(m, n, bump(l), p, nnz),
				"nnz": f(m, n, l, p, bump(nnz)),
			} {
				if got <= base {
					t.Fatalf("%s not monotone in %s: %d -> %d", name, arg, base, got)
				}
			}
		}
		if got, base := batchGramBytes(bump(b), n), batchGramBytes(b, n); got <= base {
			t.Fatalf("batchGramBytes not monotone in b: %d -> %d", base, got)
		}
		if got, base := batchGramBytes(b, bump(n)), batchGramBytes(b, n); got <= base {
			t.Fatalf("batchGramBytes not monotone in n: %d -> %d", base, got)
		}
	}
}
