package omp

import (
	"fmt"
	"math"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// sameBits reports whether a and b hold identical IEEE-754 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRefreshAlphaMatchesSequentialAxpy pins the fused α refresh to the
// form it replaced — copy(α, α⁰) and then one mat.Axpy per selected atom —
// bit for bit, over every pass split (0–9 rows) and loop length (0–13).
func TestRefreshAlphaMatchesSequentialAxpy(t *testing.T) {
	r := rng.New(93)
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		return v
	}
	distinguishable := false
	for k := 0; k <= 9; k++ {
		for n := 0; n <= 13; n++ {
			alpha0, c := vec(n), vec(k)
			rows := make([][]float64, k)
			for i := range rows {
				// Rows longer than α, as cached Gram rows may be.
				rows[i] = vec(n + i%2)
			}
			want := make([]float64, n)
			copy(want, alpha0)
			for i := range rows {
				mat.Axpy(c[i], rows[i][:n], want)
			}
			got := vec(n) // stale contents must be overwritten
			refreshAlpha(got, alpha0, c, rows)
			if !sameBits(got, want) {
				t.Fatalf("k=%d n=%d: fused refresh %v, sequential axpys %v", k, n, got, want)
			}

			// A pairwise regrouping of the same terms must be detectable,
			// or the comparison above could not catch a reassociation.
			if k >= 2 {
				alt := make([]float64, n)
				for j := range alt {
					s := c[0]*rows[0][j] + c[1]*rows[1][j]
					for i := 2; i < k; i++ {
						s += c[i] * rows[i][j]
					}
					alt[j] = alpha0[j] + s
				}
				if !sameBits(alt, want) {
					distinguishable = true
				}
			}
		}
	}
	if !distinguishable {
		t.Fatal("no case in the sweep tells the sequential order from a regrouped sum; the test cannot catch a reassociation")
	}
}

// TestEncodeColumnsZeroColumn checks that an all-zero column is coded as an
// empty column between its neighbours' codes.
func TestEncodeColumnsZeroColumn(t *testing.T) {
	r := rng.New(94)
	d := unitDictionary(r, 12, 30)
	a := mat.NewDense(12, 5)
	for i := range a.Data {
		if i%5 != 2 {
			a.Data[i] = r.NormFloat64()
		}
	}
	bc := NewBatchCoder(d)
	c, iters := bc.EncodeColumns(a, 0.1, 0, 2)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if c.ColNNZ(2) != 0 {
		t.Fatalf("zero column holds %d codes", c.ColNNZ(2))
	}
	if iters != c.NNZ() {
		t.Fatalf("iterations %d, nnz %d", iters, c.NNZ())
	}
	for _, j := range []int{0, 1, 3, 4} {
		if c.ColNNZ(j) == 0 {
			t.Fatalf("column %d coded empty", j)
		}
	}
}

// BenchmarkRefreshAlpha times the fused α refresh against the copy plus
// sequential Axpy form it replaced, at fit_union-like sizes: L Gram columns
// and k selected atoms.
func BenchmarkRefreshAlpha(b *testing.B) {
	r := rng.New(95)
	for _, l := range []int{106, 768} {
		for _, k := range []int{3, 6, 12} {
			alpha0, alpha := make([]float64, l), make([]float64, l)
			c, rows := make([]float64, k), make([][]float64, k)
			for i := range rows {
				c[i] = r.NormFloat64()
				rows[i] = make([]float64, l)
				for j := range rows[i] {
					rows[i][j] = r.NormFloat64()
				}
			}
			b.Run(fmt.Sprintf("fused/L=%d/k=%d", l, k), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					refreshAlpha(alpha, alpha0, c, rows)
				}
			})
			b.Run(fmt.Sprintf("axpys/L=%d/k=%d", l, k), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					copy(alpha, alpha0)
					for i := range rows {
						mat.Axpy(c[i], rows[i], alpha)
					}
				}
			})
		}
	}
}
